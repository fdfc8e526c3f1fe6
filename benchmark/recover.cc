// recover-* workloads: netlist text in, word labels out.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <unistd.h>
#include <unordered_set>

#include "circuitgen/suite.h"
#include "common.h"
#include "kernels/backend.h"
#include "metrics/clustering.h"
#include "nl/corruption.h"
#include "nl/decompose.h"
#include "nl/parser.h"
#include "nl/words.h"
#include "rebert/prediction_cache.h"
#include "stats.h"
#include "trace.h"
#include "util/timer.h"

namespace rebert::e2e {

namespace {

/// Labels and work counts of one recomposition (see recompose()).
struct Recomposition {
  std::vector<int> labels;
  std::int64_t gates = 0;
  std::int64_t bits = 0;
  std::int64_t unique_sequences = 0;
  std::int64_t pairs = 0;
  std::int64_t filter_pass = 0;
  std::int64_t unique_keys = 0;
  std::int64_t words = 0;
  std::int64_t forwards = 0;
  double pair_tokens_total = 0.0;  // summed over forwards
  double score_matrix_mb = 0.0;
  int root_span = -1;
};

/// The timed unit of work: netlist text in, word labels out, at `threads`
/// threads with a per-call prediction cache.
struct RecoverRun {
  std::vector<int> labels;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::size_t cache_entries = 0;
  std::vector<core::BitSequence> sequences;  // only when asked for
};

/// Exact workload properties (README.md); the seed does not change them.
struct Expected {
  std::int64_t bits, unique_sequences, pairs, filter_pass, unique_keys;
};

struct RecoverInput {
  std::string text;
  Expected expected;
};

/// Re-emits .bench text with the combinational gate statements in a
/// seed-chosen order. Inputs, outputs and flip-flops keep their order, so
/// the bit order (extract_bits follows DFF creation order) and therefore
/// every count and label is the same at any seed; only the text the
/// parser reads changes.
std::string shuffle_gates(const std::string& text, std::uint64_t seed) {
  std::vector<std::string> fixed, gates;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const bool gate = line.find('=') != std::string::npos &&
                      line.find("DFF(") == std::string::npos;
    (gate ? gates : fixed).push_back(line);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(gates.begin(), gates.end(), rng);
  std::string out;
  for (const auto* part : {&fixed, &gates})
    for (const std::string& l : *part) out += l + "\n";
  return out;
}

RecoverInput make_input(const std::string& workload, std::uint64_t seed) {
  if (workload == "recover-b18-clean") {
    const gen::GeneratedCircuit circuit = gen::generate_benchmark("b18", 1.0);
    return {shuffle_gates(nl::write_bench_string(circuit.netlist), seed),
            {3320, 334, 5509540, 1267146, 8188}};
  }
  // recover-b17-corrupt: the corruption seed is part of the workload's
  // definition; the workload seed only reorders the text, as above.
  const gen::GeneratedCircuit circuit = gen::generate_benchmark("b17", 1.0);
  nl::CorruptionOptions corruption;
  corruption.r_index = 0.5;
  corruption.seed = 7;
  const nl::Netlist variant = nl::corrupt_netlist(circuit.netlist, corruption);
  return {shuffle_gates(nl::write_bench_string(variant), seed),
          {1415, 631, 1000405, 97891, 15388}};
}

nl::Netlist parse_text(const std::string& text) {
  nl::Netlist netlist = nl::parse_bench_string(text, "bench");
  if (!nl::is_2input(netlist)) netlist = nl::decompose_to_2input(netlist);
  return netlist;
}

/// Asserts the workload-property counts and shows them in the table.
void check_counts(const RecoverInput& input, const RecoverRun& run,
                  Report& report) {
  const std::int64_t bits = static_cast<std::int64_t>(run.labels.size());
  const std::int64_t pairs = bits * (bits - 1) / 2;
  const std::int64_t pass = static_cast<std::int64_t>(run.cache_hits + run.cache_misses);
  const std::int64_t keys = static_cast<std::int64_t>(run.cache_entries);
  std::unordered_set<std::uint64_t> digests;
  for (const auto& seq : run.sequences) digests.insert(core::hash_sequence(0x5eedULL, seq));
  const std::int64_t unique_sequences = static_cast<std::int64_t>(digests.size());
  const Expected& e = input.expected;
  report.check(bits == e.bits, "bits " + std::to_string(bits));
  report.check(unique_sequences == e.unique_sequences,
               "unique sequences " + std::to_string(unique_sequences));
  report.check(pairs == e.pairs, "pairs " + std::to_string(pairs));
  report.check(pass == e.filter_pass, "filter survivors " + std::to_string(pass));
  report.check(keys == e.unique_keys, "unique keys " + std::to_string(keys));
  report.info("rebert.unique_sequences", static_cast<double>(unique_sequences), "count");
  report.info("rebert.pairs", static_cast<double>(pairs), "count");
  report.info("rebert.filter_pass", static_cast<double>(pass), "count");
  report.info("rebert.unique_keys", static_cast<double>(keys), "count");
  report.info("rebert.duplicate_share",
              1.0 - static_cast<double>(keys) / static_cast<double>(pass), "ratio");
}

/// Serial recomposition of recover from public calls: parse ->
/// extract_bits -> tokenize_bits -> filter -> key_of -> cache
/// lookup/insert -> encode_pair -> forward -> group_words. Records one root
/// span per call and one child span per stage (and per encode and forward).
Recomposition recompose(const std::string& bench_text,
                        const bert::BertPairClassifier& model,
                        const core::ExperimentOptions& options,
                        Tracer& tracer) {
  Recomposition r;
  Span root(tracer, "recover", -1);
  r.root_span = root.id();
  const core::Tokenizer tokenizer(options.pipeline.tokenizer);

  nl::Netlist netlist;
  {
    Span span(tracer, "nl.parse", root.id());
    netlist = parse_text(bench_text);
    r.gates = netlist.stats().num_comb_gates;
    span.count("gates", static_cast<double>(r.gates));
  }
  {
    Span span(tracer, "nl.extract_bits", root.id());
    r.bits = static_cast<std::int64_t>(nl::extract_bits(netlist).size());
    span.count("bits", static_cast<double>(r.bits));
  }
  std::vector<core::BitSequence> seqs;
  {
    Span span(tracer, "rebert.tokenize", root.id());
    seqs = tokenizer.tokenize_bits(netlist);
    span.count("sequences", static_cast<double>(seqs.size()));
  }
  {
    std::unordered_set<std::uint64_t> digests;
    for (const auto& s : seqs) digests.insert(core::hash_sequence(0x5eedULL, s));
    r.unique_sequences = static_cast<std::int64_t>(digests.size());
  }

  const int n = static_cast<int>(seqs.size());
  std::vector<std::pair<int, int>> survivors;
  {
    Span span(tracer, "rebert.filter", root.id());
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (core::passes_filter(seqs[static_cast<std::size_t>(i)],
                                seqs[static_cast<std::size_t>(j)],
                                options.pipeline.filter))
          survivors.emplace_back(i, j);
    r.pairs = static_cast<std::int64_t>(n) * (n - 1) / 2;
    r.filter_pass = static_cast<std::int64_t>(survivors.size());
    span.count("pairs", static_cast<double>(r.pairs));
    span.count("pass", static_cast<double>(r.filter_pass));
  }
  std::vector<std::uint64_t> keys(survivors.size());
  {
    Span span(tracer, "rebert.cache_key", root.id());
    for (std::size_t p = 0; p < survivors.size(); ++p)
      keys[p] = core::PredictionCache::key_of(
          seqs[static_cast<std::size_t>(survivors[p].first)],
          seqs[static_cast<std::size_t>(survivors[p].second)]);
  }

  core::ScoreMatrix matrix(n);
  r.score_matrix_mb = static_cast<double>(n) * n * sizeof(double) / 1048576.0;
  std::vector<int> pair_tokens;
  {
    Span span(tracer, "rebert.cache", root.id());
    core::PredictionCache cache;
    for (std::size_t p = 0; p < survivors.size(); ++p) {
      const auto [i, j] = survivors[p];
      double score = 0.0;
      if (!cache.lookup(keys[p], &score)) {
        bert::EncodedSequence encoded;
        {
          Span encode(tracer, "rebert.encode", span.id());
          encoded = tokenizer.encode_pair(seqs[static_cast<std::size_t>(i)],
                                          seqs[static_cast<std::size_t>(j)]);
        }
        {
          Span forward(tracer, "bert.forward", span.id());
          score = model.predict_same_word_probability(encoded);
        }
        pair_tokens.push_back(encoded.length());
        cache.insert(keys[p], score);
      }
      matrix.set(i, j, score);
    }
    r.unique_keys = static_cast<std::int64_t>(cache.size());
    span.count("hits", static_cast<double>(cache.hits()));
    span.count("misses", static_cast<double>(cache.misses()));
  }
  for (int t : pair_tokens) r.pair_tokens_total += t;
  r.forwards = static_cast<std::int64_t>(pair_tokens.size());
  {
    Span span(tracer, "rebert.group", root.id());
    r.labels = core::group_words(matrix, options.pipeline.grouping);
    r.words = metrics::num_clusters(r.labels);
    span.count("words", static_cast<double>(r.words));
  }
  return r;
}

RecoverRun recover_text(const std::string& bench_text,
                        bert::BertPairClassifier& model,
                        const core::ExperimentOptions& options, int threads,
                        bool keep_sequences = false) {
  const nl::Netlist netlist = parse_text(bench_text);
  core::PipelineOptions pipeline = options.pipeline;
  pipeline.num_threads = threads;
  // A fresh cache per call behaves as recover's own per-call cache and
  // exposes its hit and miss counts.
  core::ShardedPredictionCache cache;
  pipeline.external_cache = &cache;
  RecoverRun run;
  core::RecoveryArtifacts artifacts =
      core::recover_words_detailed(netlist, model, pipeline);
  run.labels = std::move(artifacts.result.labels);
  if (keep_sequences) run.sequences = std::move(artifacts.sequences);
  run.cache_hits = cache.hits();
  run.cache_misses = cache.misses();
  run.cache_entries = cache.size();
  return run;
}

}  // namespace

void save_fresh_checkpoint(const core::ExperimentOptions& options,
                           const std::string& path) {
  bert::BertPairClassifier model(core::make_model_config(options));
  model.save(path);
}

namespace {

/// Checkpoint loads per set-up round (see run_recover_workload()).
constexpr int kLoadsPerRound = 20;

/// Builds the model and loads the checkpoint into it kLoadsPerRound times,
/// appending each build+load time to *samples; returns the last model.
std::unique_ptr<bert::BertPairClassifier> load_checkpoint(
    const core::ExperimentOptions& options, const std::string& path,
    std::vector<double>* samples) {
  std::unique_ptr<bert::BertPairClassifier> model;
  for (int k = 0; k < kLoadsPerRound; ++k) {
    util::WallTimer timer;
    model = std::make_unique<bert::BertPairClassifier>(
        core::make_model_config(options));
    model->load(path);
    samples->push_back(timer.seconds());
  }
  return model;
}

/// The per-layer metrics of a recover workload, measured on `bench_text`:
/// traced recomposition stage self times and counts, the nproc recover's
/// cache behaviour, trace overhead, runtime speedup, and the bert/kernels
/// layer timings at the workload's mean pair length. Returns the traced
/// recomposition.
Recomposition trace_recover_layers(const std::string& bench_text,
                          bert::BertPairClassifier& model,
                          const core::ExperimentOptions& options,
                          const Args& args, Report& report) {
  const int threads = nproc();
  Tracer tracer;
  const Recomposition r = recompose(bench_text, model, options, tracer);
  const double traced_wall = tracer.seconds(r.root_span);

  util::WallTimer timer;
  const RecoverRun serial = recover_text(bench_text, model, options, 1);
  const double untraced_wall = timer.seconds();
  report.check(serial.labels == r.labels,
               "1-thread recover labels differ from the traced recomposition");
  const RecoverRun parallel = recover_text(bench_text, model, options, threads);
  report.check(parallel.labels == r.labels,
               "nproc-thread recover labels differ from the traced "
               "recomposition");
  report.attempts(2, (serial.labels != r.labels) + (parallel.labels != r.labels));

  // Stage self times; together with the root's own time they add up to the
  // traced wall time exactly.
  const std::map<std::string, double> self = tracer.self_seconds();
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double stage_sum = 0.0;
  for (const auto& [name, seconds] : self) stage_sum += seconds;
  report.check(std::abs(stage_sum - traced_wall) <= 1e-6 * traced_wall + 1e-9,
               "stage self times do not add up to the traced wall time");

  report.metric("trace.wall_s", traced_wall, "s");
  report.metric("trace.other_s", self_of("recover"), "s");
  report.metric("trace.overhead_ratio", traced_wall / untraced_wall, "ratio");
  report.info("trace.untraced_recover_1t_s", untraced_wall, "s");

  report.metric("nl.parse_s", self_of("nl.parse"), "s");
  report.metric("nl.extract_bits_s", self_of("nl.extract_bits"), "s");
  report.metric("nl.bits", static_cast<double>(r.bits), "count");
  report.metric("nl.gates", static_cast<double>(r.gates), "count");

  report.metric("rebert.tokenize_s", self_of("rebert.tokenize"), "s");
  report.metric("rebert.unique_sequences", static_cast<double>(r.unique_sequences), "count");
  report.metric("rebert.pairs", static_cast<double>(r.pairs), "count");
  report.metric("rebert.filter_s", self_of("rebert.filter"), "s");
  report.metric("rebert.filter_pass", static_cast<double>(r.filter_pass), "count");
  report.metric("rebert.filter_pass_ratio",
                static_cast<double>(r.filter_pass) / static_cast<double>(r.pairs), "ratio");
  report.metric("rebert.cache_key_s", self_of("rebert.cache_key"), "s");
  report.metric("rebert.unique_keys", static_cast<double>(r.unique_keys), "count");
  report.metric("rebert.duplicate_share",
                1.0 - static_cast<double>(r.unique_keys) / static_cast<double>(r.filter_pass),
                "ratio");
  report.metric("rebert.cache_s", self_of("rebert.cache"), "s");

  const double forwards = static_cast<double>(parallel.cache_misses);
  report.metric("rebert.forwards", forwards, "count");
  report.metric("rebert.forward_useful_ratio",
                static_cast<double>(r.unique_keys) / forwards, "ratio");
  report.metric("rebert.cache_hit_ratio",
                static_cast<double>(parallel.cache_hits) /
                    static_cast<double>(parallel.cache_hits + parallel.cache_misses),
                "ratio");
  report.metric("rebert.encode_s", self_of("rebert.encode"), "s");
  report.metric("rebert.mean_pair_tokens",
                r.pair_tokens_total / static_cast<double>(r.forwards), "tokens");
  report.metric("rebert.group_s", self_of("rebert.group"), "s");
  report.metric("rebert.words", static_cast<double>(r.words), "count");
  report.metric("rebert.score_matrix_mb", r.score_matrix_mb, "MB");

  const double forward_s = self_of("bert.forward");
  const Summary forward_us = [&] {
    std::vector<double> us = tracer.durations("bert.forward");
    for (double& d : us) d *= 1e6;
    return summarize(std::move(us));
  }();
  report.metric("bert.forward_s", forward_s, "s");
  report.metric("bert.forward_us_p50", forward_us.median, "us");
  report.metric("bert.forwards_per_s", static_cast<double>(r.forwards) / forward_s, "1/s");

  // runtime: score_all_pairs alone, serial versus nproc threads.
  {
    const core::Tokenizer tokenizer(options.pipeline.tokenizer);
    const std::vector<core::BitSequence> seqs =
        tokenizer.tokenize_bits(parse_text(bench_text));
    double seconds[2] = {0.0, 0.0};
    const int counts[2] = {1, threads};
    for (int k = 0; k < 2; ++k) {
      core::ShardedPredictionCache cache;
      core::ScoringOptions scoring;
      scoring.num_threads = counts[k];
      util::WallTimer t;
      core::score_all_pairs(seqs, tokenizer, options.pipeline.filter, model,
                            &cache, scoring);
      seconds[k] = t.seconds();
    }
    report.metric("runtime.scoring_speedup", seconds[0] / seconds[1], "x");
    report.info("runtime.scoring_1t_s", seconds[0], "s");
    report.info("runtime.scoring_nproc_s", seconds[1], "s");
  }

  time_layers(model.config(),
              static_cast<int>(std::lround(r.pair_tokens_total / r.forwards)),
              report);

  const std::string path = args.run_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
  report.check(tracer.write(path), "cannot write " + path);
  report.meta("trace_file", path);
  return r;
}

}  // namespace

int run_recover_workload(const Args& args, Report& report) {
  const core::ExperimentOptions options = cli_experiment_options();
  const RecoverInput input = make_input(args.workload, args.seed);
  report.meta("kernels", kernels::backend_name(kernels::active_backend()));

  const std::string checkpoint = args.run_dir + "/model-" +
                                 std::to_string(::getpid()) + ".rbtw";
  save_fresh_checkpoint(options, checkpoint);
  std::vector<double> setup_samples;
  std::unique_ptr<bert::BertPairClassifier> model =
      load_checkpoint(options, checkpoint, &setup_samples);

  if (args.trace) {
    std::remove(checkpoint.c_str());
    const Recomposition r =
        trace_recover_layers(input.text, *model, options, args, report);
    const Expected& e = input.expected;
    report.check(r.bits == e.bits && r.unique_sequences == e.unique_sequences &&
                     r.pairs == e.pairs && r.filter_pass == e.filter_pass &&
                     r.unique_keys == e.unique_keys,
                 "workload-property counts of the recomposition");
    // serve-score is not a gated workload (README.md), so the serving
    // layers are measured here, in the traced run of the b17 workload.
    if (args.workload == "recover-b17-corrupt") trace_serve_layers(args, report);
    return 0;
  }

  // The first timed recover is the reference for every repeat; its cache
  // counts give the workload properties (every filter survivor is looked
  // up once, and each unique key is inserted once). The traced run checks
  // the labels against the serial recomposition. A set-up round follows
  // each recover, so the set-up samples span the whole run instead of one
  // stretch of host noise a few milliseconds long.
  const int threads = nproc();
  std::vector<double> samples;
  std::vector<int> reference;
  std::int64_t attempted = 0, failed = 0;
  util::WallTimer budget;
  while (budget.seconds() < args.seconds || samples.size() < 3) {
    util::WallTimer timer;
    const RecoverRun run =
        recover_text(input.text, *model, options, threads, reference.empty());
    samples.push_back(timer.seconds());
    ++attempted;
    if (reference.empty()) {
      reference = run.labels;
      check_counts(input, run, report);
    }
    failed += run.labels != reference;
    load_checkpoint(options, checkpoint, &setup_samples);
  }
  std::remove(checkpoint.c_str());
  report.check(failed == 0, std::to_string(failed) +
                                " recover(s) gave labels that differ between "
                                "repeats");
  report.attempts(attempted, failed);
  const Summary s = summarize(samples);
  const Summary setup = summarize(setup_samples);
  report.metric("setup_s", setup.median, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("recover_s", s.median, "s");
  report.info("recover_samples", static_cast<double>(s.n), "count");
  report.info("recover_tail_s", s.tail, "s");
  report.info("recover_tail_q", s.tail_q, "quantile");
  report.info("setup_samples", static_cast<double>(setup.n), "count");
  return 0;
}

}  // namespace rebert::e2e
