// rebert_cli — command-line driver for the whole toolkit.
//
// Subcommands (run `rebert_cli` with no arguments for the same list — the
// usage screen and the dispatcher are generated from one table, so they
// cannot drift apart):
//
//   rebert_cli gen         --bench b05 --out c.bench [--scale 1.0]
//                          [--words c.words]
//   rebert_cli stats       --in c.bench
//   rebert_cli convert     --in c.bench --out c.v
//   rebert_cli corrupt     --in c.bench --out d.bench [--r-index 0.5]
//                          [--seed 7]
//   rebert_cli optimize    --in c.bench --out e.bench
//   rebert_cli train       --out model.bin [--benchmarks b03,b08,...]
//                          [--scale 0.25] [--epochs 3] [--max-samples 250]
//   rebert_cli recover     --in c.bench [--model model.bin] [--threads N]
//                          [--words truth] [--structural] [--report]
//                          [--cache-file cache.rbpc]
//   rebert_cli analyze     --in c.bench --bits q0,q1,q2
//   rebert_cli dot         --in c.bench --out c.dot [--words truth]
//   rebert_cli lint        --in c.bench [--words truth] [--format text|csv]
//                          [--out report.csv] [--fail-on-warn]
//   rebert_cli serve       [--socket /tmp/rebert.sock] [--threads N]
//                          [--batch 16] [--model model.bin]
//                          [--manifest models.manifest] [--scale 0.25]
//                          [--cache-file cache.rbpc] [--snapshot-every 64]
//                          [--max-inflight 0] [--max-inflight-per-bench 0]
//                          [--retry-after-ms 50] [--deadline-ms 0]
//                          [--max-connections 64] [--listen-backlog 0]
//                          [--dispatch-threads 0]
//   rebert_cli route       --socket /tmp/router.sock [--backends 2 |
//                          --backend-sockets a.sock[@w],b.sock[@w]]
//                          [--backend-weights 1,2] [--vnodes 64]
//                          [--replicas 2] [--mirror-queue-depth 256]
//                          [--queue-depth 0] [--queue-timeout-ms 250]
//                          [--probe-interval-ms 200]
//                          [--restart-jitter-pct 15] + serve flags
//                          passed through to spawned backends
//   rebert_cli call        --socket /tmp/router.sock [--retry] <request...>
//   rebert_cli score       [--bench b07] [--pairs 200 | --bits a,b]
//                          [--seed 1] [--cache-file cache.rbpc] [...]
//
// File formats are detected by extension: .v / .verilog parse as structural
// Verilog, everything else as ISCAS-89 .bench.
//
// `lint` reports typed diagnostics (NL001..., see src/nl/lint.h) instead of
// stopping at the first defect; exit status is 0 when no error-severity
// diagnostic fired (add --fail-on-warn to also fail on warnings).
//
// `serve` speaks the newline protocol of src/serve/protocol.h over stdio
// (default) or a Unix socket.
//
// Overload safety (see DESIGN.md): --max-inflight bounds concurrently
// admitted score/recover requests (excess answered `err overloaded
// retry_after_ms=<n>`), --deadline-ms imposes a default per-request
// deadline (`err deadline_exceeded`), --max-connections caps live socket
// connections in the reactor's epoll set (excess connections get the
// overload advisory in their own encoding and are closed), --dispatch-
// threads sizes the model-work pool behind the reactor (0 = default 16),
// --listen-backlog overrides the SOMAXCONN accept queue (0 = SOMAXCONN),
// and the REBERT_FAULTS environment variable
// (site:prob:seed[:delay_ms],...) arms deterministic fault injection for
// chaos drills — a model-path fault degrades `recover` to the structural
// baseline rather than failing it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuitgen/suite.h"
#include "kernels/backend.h"
#include "metrics/clustering.h"
#include "nl/corruption.h"
#include "nl/decompose.h"
#include "nl/export_dot.h"
#include "nl/lint.h"
#include "nl/opt.h"
#include "nl/parser.h"
#include "nl/verilog.h"
#include "persist/cache_io.h"
#include "rebert/pipeline.h"
#include "rebert/prediction_cache.h"
#include "rebert/report.h"
#include "rebert/word_typing.h"
#include "router/router.h"
#include "router/supervisor.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/serve_loop.h"
#include "structural/matching.h"
#include "util/flags.h"
#include "util/fnv1a.h"
#include "util/rng.h"
#include "util/string_utils.h"
#include "util/timer.h"

using namespace rebert;

namespace {

bool is_verilog_path(const std::string& path) {
  return util::ends_with(path, ".v") || util::ends_with(path, ".verilog");
}

nl::Netlist read_netlist(const std::string& path) {
  return is_verilog_path(path) ? nl::parse_verilog_file(path)
                               : nl::parse_bench_file(path);
}

void write_netlist(const nl::Netlist& netlist, const std::string& path) {
  if (is_verilog_path(path))
    nl::write_verilog_file(netlist, path);
  else
    nl::write_bench_file(netlist, path);
}

std::string require_flag(const util::FlagParser& flags,
                         const std::string& name) {
  const std::string value = flags.get(name, "");
  if (value.empty()) {
    std::fprintf(stderr, "missing required flag --%s\n", name.c_str());
    std::exit(2);
  }
  return value;
}

core::ExperimentOptions experiment_options(const util::FlagParser& flags) {
  core::ExperimentOptions options;
  options.pipeline.tokenizer.backtrace_depth = flags.get_int("depth", 6);
  options.pipeline.tokenizer.tree_code_dim = 16;
  options.pipeline.tokenizer.max_seq_len = 256;
  options.dataset.max_samples_per_circuit =
      flags.get_int("max-samples", 250);
  options.training.epochs = flags.get_int("epochs", 3);
  options.training.verbose = flags.get_bool("verbose", false);
  return options;
}

serve::EngineOptions engine_options(const util::FlagParser& flags) {
  serve::EngineOptions options;
  options.num_threads = flags.get_int("threads", 0);
  options.batch_size = flags.get_int("batch", 16);
  options.suite_scale = flags.get_double("scale", 0.25);
  options.model_path = flags.get("model", "");
  options.manifest_path = flags.get("manifest", "");
  options.max_inflight = flags.get_int("max-inflight", 0);
  options.max_inflight_per_bench =
      flags.get_int("max-inflight-per-bench", 0);
  options.retry_after_ms = flags.get_int("retry-after-ms", 50);
  options.experiment = experiment_options(flags);
  return options;
}

int cmd_gen(const util::FlagParser& flags) {
  const std::string bench = require_flag(flags, "bench");
  const std::string out = require_flag(flags, "out");
  const double scale = flags.get_double("scale", 1.0);
  gen::GeneratedCircuit circuit = gen::generate_benchmark(bench, scale);
  write_netlist(circuit.netlist, out);
  std::printf("wrote %s (%d gates, %zu FFs, %d words)\n", out.c_str(),
              circuit.netlist.stats().num_comb_gates,
              circuit.netlist.dffs().size(), circuit.words.num_words());
  const std::string words_path = flags.get("words", "");
  if (!words_path.empty()) {
    circuit.words.save(words_path);
    std::printf("wrote ground truth to %s\n", words_path.c_str());
  }
  return 0;
}

int cmd_stats(const util::FlagParser& flags) {
  const nl::Netlist netlist = read_netlist(require_flag(flags, "in"));
  const nl::NetlistStats stats = netlist.stats();
  std::printf("netlist   : %s\n", netlist.name().c_str());
  std::printf("inputs    : %d\n", stats.num_inputs);
  std::printf("outputs   : %d\n", stats.num_outputs);
  std::printf("flip-flops: %d\n", stats.num_dffs);
  std::printf("gates     : %d (max fanin %d)\n", stats.num_comb_gates,
              stats.max_fanin);
  const auto depths = netlist.logic_depths();
  int max_depth = 0;
  for (int d : depths) max_depth = std::max(max_depth, d);
  std::printf("depth     : %d levels\n", max_depth);
  return 0;
}

int cmd_convert(const util::FlagParser& flags) {
  const nl::Netlist netlist = read_netlist(require_flag(flags, "in"));
  const std::string out = require_flag(flags, "out");
  write_netlist(netlist, out);
  std::printf("converted to %s\n", out.c_str());
  return 0;
}

int cmd_corrupt(const util::FlagParser& flags) {
  const nl::Netlist netlist = read_netlist(require_flag(flags, "in"));
  nl::CorruptionOptions options;
  options.r_index = flags.get_double("r-index", 0.5);
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  nl::CorruptionReport report;
  const nl::Netlist corrupted =
      nl::corrupt_netlist(netlist, options, &report);
  write_netlist(corrupted, require_flag(flags, "out"));
  std::printf("replaced %d/%d eligible gates (+%d helpers)\n",
              report.replaced_gates, report.eligible_gates,
              report.added_gates);
  return 0;
}

int cmd_optimize(const util::FlagParser& flags) {
  const nl::Netlist netlist = read_netlist(require_flag(flags, "in"));
  nl::OptReport report;
  const nl::Netlist optimized = nl::optimize_netlist(netlist, {}, &report);
  write_netlist(optimized, require_flag(flags, "out"));
  std::printf(
      "gates %d -> %d (folded %d, buffers %d, merged %d, dead %d)\n",
      report.gates_before, report.gates_after, report.folded_gates,
      report.collapsed_buffers, report.merged_gates, report.dead_gates);
  return 0;
}

int cmd_train(const util::FlagParser& flags) {
  const std::string out = require_flag(flags, "out");
  const double scale = flags.get_double("scale", 0.25);
  const std::string list =
      flags.get("benchmarks", "b03,b04,b05,b07,b08,b11,b12,b13");
  core::ExperimentOptions options = experiment_options(flags);

  std::vector<core::CircuitData> circuits;
  for (const std::string& piece : util::split(list, ',')) {
    const std::string name = util::trim(piece);
    if (name.empty()) continue;
    gen::GeneratedCircuit generated = gen::generate_benchmark(name, scale);
    circuits.push_back(core::CircuitData{name, std::move(generated.netlist),
                                         std::move(generated.words)});
  }
  std::vector<const core::CircuitData*> train_set;
  for (const auto& circuit : circuits) train_set.push_back(&circuit);
  std::printf("training on %zu circuits (scale %.2f)...\n", circuits.size(),
              scale);
  const auto model = core::train_rebert(train_set, options);
  model->save(out);
  std::printf("saved model (%lld parameters) to %s\n",
              static_cast<long long>(model->num_parameters()), out.c_str());
  return 0;
}

int cmd_recover(const util::FlagParser& flags) {
  nl::Netlist netlist = read_netlist(require_flag(flags, "in"));
  if (!nl::is_2input(netlist)) netlist = nl::decompose_to_2input(netlist);
  const std::vector<nl::Bit> bits = nl::extract_bits(netlist);
  if (bits.empty()) {
    std::fprintf(stderr, "netlist has no flip-flops\n");
    return 1;
  }
  // 1 = serial (default), 0 = REBERT_THREADS / hardware, n = exactly n.
  // Recovered labels are bit-identical at any value.
  const int threads = flags.get_int("threads", 1);
  const std::string cache_file = flags.get("cache-file", "");

  std::vector<int> labels;
  if (flags.get_bool("structural", false)) {
    structural::MatchingOptions match_options;
    match_options.num_threads = threads;
    const structural::StructuralResult result =
        structural::recover_words_structural(netlist, match_options);
    labels = result.labels;
    std::printf("structural matching: %d words in %.3fs\n",
                result.num_words, result.total_seconds);
  } else {
    core::ExperimentOptions options = experiment_options(flags);
    options.pipeline.num_threads = threads;
    // Cross-run prediction reuse: map a snapshot as the cache's warm tier
    // before scoring (the same warm start the serve daemon does) and write
    // it back after (lossless — labels are identical warm or cold, only
    // wall-clock changes).
    core::ShardedPredictionCache cache;
    if (!cache_file.empty()) {
      const std::size_t warmed =
          persist::warm_start_cache(&cache, cache_file);
      std::printf("cache: warm-started %zu entries from %s\n", warmed,
                  cache_file.c_str());
      options.pipeline.external_cache = &cache;
    }
    bert::BertPairClassifier model(core::make_model_config(options));
    const std::string model_path = flags.get("model", "");
    if (!model_path.empty()) {
      model.load(model_path);
    } else {
      std::fprintf(stderr,
                   "warning: no --model given; using untrained weights "
                   "(results will be poor). train one with "
                   "'rebert_cli train --out model.bin'.\n");
    }
    const core::RecoveryArtifacts artifacts =
        core::recover_words_detailed(netlist, model, options.pipeline);
    labels = artifacts.result.labels;
    std::printf("ReBERT: %d words in %.3fs (%.0f%% filtered, %.0f%% cache "
                "hits)\n",
                artifacts.result.num_words,
                artifacts.result.total_seconds,
                artifacts.result.filtered_fraction * 100.0,
                artifacts.result.cache_hit_rate * 100.0);
    if (!cache_file.empty()) {
      persist::save_cache(cache, cache_file);
      std::printf("cache: saved %zu entries to %s\n", cache.size(),
                  cache_file.c_str());
    }
    if (flags.get_bool("report", false) || flags.get_bool("json", false)) {
      const core::WordReport report = core::make_word_report(
          artifacts.bits, artifacts.scores, artifacts.result.labels);
      if (flags.get_bool("json", false))
        std::printf("%s\n", report.to_json().c_str());
      else
        std::printf("%s", report.to_string().c_str());
    }
  }

  const nl::WordMap predicted = nl::WordMap::from_labels(bits, labels);
  if (!flags.get_bool("report", false)) {
    for (const auto& [word, members] : predicted.words()) {
      if (members.size() < 2) continue;
      std::printf("  %s:", word.c_str());
      for (const std::string& bit : members) std::printf(" %s", bit.c_str());
      std::printf("\n");
    }
  }

  const std::string truth_path = flags.get("words", "");
  if (!truth_path.empty()) {
    const nl::WordMap truth = nl::WordMap::load(truth_path);
    const double ari = metrics::adjusted_rand_index(truth.labels_for(bits),
                                                    labels);
    std::printf("ARI vs %s: %.3f\n", truth_path.c_str(), ari);
  }
  return 0;
}

int cmd_analyze(const util::FlagParser& flags) {
  const nl::Netlist netlist = read_netlist(require_flag(flags, "in"));
  const std::string bits = require_flag(flags, "bits");
  std::vector<std::string> names;
  for (const std::string& piece : util::split(bits, ','))
    if (!util::trim(piece).empty()) names.push_back(util::trim(piece));
  const core::WordAnalysis analysis = core::analyze_word(netlist, names);
  std::printf("kind       : %s\n", core::word_kind_name(analysis.kind));
  std::printf("confidence : %.3f\n", analysis.confidence);
  std::printf("activity   : %.3f\n", analysis.activity);
  std::printf("bit order  : %s\n",
              util::join(analysis.ordered_bits, " ").c_str());
  return 0;
}

int cmd_dot(const util::FlagParser& flags) {
  const nl::Netlist netlist = read_netlist(require_flag(flags, "in"));
  nl::WordMap words;
  const std::string words_path = flags.get("words", "");
  if (!words_path.empty()) words = nl::WordMap::load(words_path);
  const std::string out_path = require_flag(flags, "out");
  std::ofstream out(out_path);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  nl::write_dot(netlist, words, out);
  std::printf("wrote %s (render with: dot -Tsvg %s -o graph.svg)\n",
              out_path.c_str(), out_path.c_str());
  return 0;
}

int cmd_lint(const util::FlagParser& flags) {
  const std::string in_path = require_flag(flags, "in");

  nl::LintOptions options;
  nl::WordMap words;
  const std::string words_path = flags.get("words", "");
  if (!words_path.empty()) {
    words = nl::WordMap::load(words_path);
    options.words = &words;
  }

  nl::LintReport report;
  if (is_verilog_path(in_path)) {
    // Verilog has no tolerant source-level pass; parse (reporting a parse
    // failure as a diagnostic) and lint the graph.
    try {
      const nl::Netlist netlist = nl::parse_verilog_file(in_path);
      report = nl::lint_netlist(netlist, options);
    } catch (const std::exception& e) {
      nl::LintDiagnostic d;
      d.code = nl::LintCode::kParseFailure;
      d.message = e.what();
      report.netlist_name = in_path;
      report.add(std::move(d));
    }
  } else {
    report = nl::lint_bench_file(in_path, options);
  }

  const std::string format = flags.get("format", "text");
  std::string rendered;
  if (format == "csv") {
    rendered = report.to_csv();
  } else if (format == "text") {
    rendered = report.to_text();
  } else {
    std::fprintf(stderr, "unknown --format '%s' (text|csv)\n",
                 format.c_str());
    return 2;
  }

  const std::string out_path = flags.get("out", "");
  if (out_path.empty()) {
    std::fputs(rendered.c_str(), stdout);
  } else {
    std::ofstream out(out_path);
    if (!out.good()) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    out << rendered;
    std::printf("wrote %s (%zu diagnostic(s))\n", out_path.c_str(),
                report.diagnostics.size());
  }

  const bool failed = report.num_errors() > 0 ||
                      (flags.get_bool("fail-on-warn", false) &&
                       report.num_warnings() > 0);
  return failed ? 1 : 0;
}

int cmd_serve(const util::FlagParser& flags) {
  serve::InferenceEngine engine(engine_options(flags));
  serve::ServeLoop loop(engine);
  loop.set_default_deadline_ms(flags.get_int("deadline-ms", 0));
  loop.set_max_connections(flags.get_int("max-connections", 64));
  // 0 = the built-in defaults: SOMAXCONN backlog, 16 dispatch threads.
  loop.set_listen_backlog(flags.get_int("listen-backlog", 0));
  loop.set_dispatch_threads(flags.get_int("dispatch-threads", 0));
  // --binary false turns the wire protocol away at negotiation; the text
  // protocol is always served.
  loop.set_accept_binary(flags.get_bool("binary", true));
  const std::string cache_file = flags.get("cache-file", "");
  if (!cache_file.empty()) {
    engine.load_cache(cache_file);  // cold start on missing/corrupt
    loop.enable_snapshots(cache_file, flags.get_int("snapshot-every", 64));
  }
  const std::string socket_path = flags.get("socket", "");
  if (!socket_path.empty()) {
    loop.run_unix_socket(socket_path);  // blocks until the process dies
    return 0;
  }
  std::fprintf(stderr,
               "rebert serve: reading requests from stdin (try: help)\n");
  const std::size_t answered = loop.run(std::cin, std::cout);
  std::fprintf(stderr, "rebert serve: answered %zu request(s)\n", answered);
  return 0;
}

// route: signal plumbing so Ctrl-C / SIGTERM unwinds run_unix_socket and
// the supervisor destructor reaps the backend children instead of
// orphaning them.
router::Router* g_route_router = nullptr;

void route_signal_handler(int) {
  if (g_route_router != nullptr) g_route_router->stop();
}

int cmd_route(const util::FlagParser& flags) {
  const std::string socket_path = require_flag(flags, "socket");

  // Backend set: either externally managed daemons (--backend-sockets) or
  // N supervised children spawned from this very binary (--backends).
  // Each backend carries a ring weight: externally via the manifest syntax
  // `path@weight`, supervised via the --backend-weights comma list
  // (index-matched, missing entries default to 1).
  std::vector<std::string> backend_sockets;
  std::vector<double> backend_weights;
  const std::string external = flags.get("backend-sockets", "");
  router::SupervisorOptions supervisor_options;
  supervisor_options.restart_jitter_pct =
      flags.get_int("restart-jitter-pct", 15);
  router::BackendSupervisor supervisor(supervisor_options);
  const bool supervised = external.empty();
  if (supervised) {
    const int count = std::max(1, flags.get_int("backends", 2));
    for (int i = 0; i < count; ++i)
      backend_sockets.push_back(socket_path + ".backend" +
                                std::to_string(i));
    // Children are `rebert_cli serve` with the serve-relevant flags
    // passed through; /proc/self/exe re-runs whatever binary we are.
    for (int i = 0; i < count; ++i) {
      std::vector<std::string> argv{
          "/proc/self/exe", "serve", "--socket", backend_sockets[
              static_cast<std::size_t>(i)]};
      const auto pass = [&](const char* flag) {
        const std::string value = flags.get(flag, "");
        if (!value.empty()) {
          argv.push_back(std::string("--") + flag);
          argv.push_back(value);
        }
      };
      pass("threads");
      pass("batch");
      pass("scale");
      pass("model");
      pass("manifest");
      pass("depth");
      pass("max-inflight");
      pass("max-inflight-per-bench");
      pass("retry-after-ms");
      pass("deadline-ms");
      pass("max-connections");
      pass("listen-backlog");
      pass("dispatch-threads");
      pass("kernels");
      pass("snapshot-every");
      // Per-backend snapshot files: each worker persists (and, after a
      // SIGKILL respawn, mmaps) its own shard of the cache — shared state
      // between workers would defeat the consistent-hash partitioning.
      const std::string cache_file = flags.get("cache-file", "");
      if (!cache_file.empty()) {
        argv.push_back("--cache-file");
        argv.push_back(cache_file + ".backend" + std::to_string(i));
      }
      supervisor.add("backend" + std::to_string(i), std::move(argv));
    }
    backend_weights.assign(backend_sockets.size(), 1.0);
    std::size_t at = 0;
    for (const std::string& piece :
         util::split(flags.get("backend-weights", ""), ',')) {
      if (at >= backend_weights.size()) break;
      const std::string text = util::trim(piece);
      if (!text.empty()) {
        char* end = nullptr;
        const double weight = std::strtod(text.c_str(), &end);
        if (end == nullptr || *end != '\0' || !(weight > 0.0)) {
          std::fprintf(stderr, "--backend-weights: bad weight '%s'\n",
                       text.c_str());
          return 2;
        }
        backend_weights[at] = weight;
      }
      ++at;
    }
    supervisor.start();
  } else {
    for (const std::string& piece : util::split(external, ',')) {
      std::string entry = util::trim(piece);
      if (entry.empty()) continue;
      double weight = 1.0;
      const std::size_t split_at = entry.rfind('@');
      if (split_at != std::string::npos) {
        const std::string text = entry.substr(split_at + 1);
        char* end = nullptr;
        weight = std::strtod(text.c_str(), &end);
        if (text.empty() || end == nullptr || *end != '\0' ||
            !(weight > 0.0)) {
          std::fprintf(stderr,
                       "--backend-sockets: bad weight in '%s' "
                       "(want path@weight)\n",
                       entry.c_str());
          return 2;
        }
        entry = util::trim(entry.substr(0, split_at));
      }
      backend_sockets.push_back(entry);
      backend_weights.push_back(weight);
    }
    if (backend_sockets.empty()) {
      std::fprintf(stderr, "--backend-sockets names no sockets\n");
      return 2;
    }
  }

  router::RouterOptions options;
  options.vnodes = flags.get_int("vnodes", 64);
  options.replicas = flags.get_int("replicas", 2);
  options.probe_interval_ms = flags.get_int("probe-interval-ms", 200);
  options.retry_after_ms = flags.get_int("retry-after-ms", 50);
  options.dispatch_threads = flags.get_int("dispatch-threads", 0);
  options.mirror_queue_depth = static_cast<std::size_t>(
      std::max(0, flags.get_int("mirror-queue-depth", 256)));
  options.queue_depth = flags.get_int("queue-depth", 0);
  options.queue_timeout_ms = flags.get_int("queue-timeout-ms", 250);
  router::Router router(options);
  for (std::size_t i = 0; i < backend_sockets.size(); ++i)
    router.add_backend("backend" + std::to_string(i), backend_sockets[i],
                       backend_weights[i]);
  if (supervised) {
    router.set_backend_info([&supervisor](const std::string& name) {
      std::ostringstream info;
      info << "pid=" << supervisor.pid_of(name)
           << " restarts=" << supervisor.restarts_of(name);
      return info.str();
    });
  }

  // Supervision ticks next to the serving loop: reap/respawn every 50 ms.
  std::atomic<bool> supervising{supervised};
  std::thread supervision;
  if (supervised) {
    supervision = std::thread([&] {
      while (supervising.load(std::memory_order_relaxed)) {
        supervisor.poll_once();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }

  g_route_router = &router;
  std::signal(SIGINT, route_signal_handler);
  std::signal(SIGTERM, route_signal_handler);
  std::printf("route: %zu backend(s) behind %s\n", backend_sockets.size(),
              socket_path.c_str());
  router.run_unix_socket(socket_path);  // blocks until signal / quit+stop

  g_route_router = nullptr;
  supervising.store(false, std::memory_order_relaxed);
  if (supervision.joinable()) supervision.join();
  supervisor.stop();
  return 0;
}

// call: one request over a Unix socket from the shell — what the smoke
// tests and operators use instead of depending on nc/socat.
int cmd_call(const util::FlagParser& flags) {
  const std::string socket_path = require_flag(flags, "socket");
  std::string line;
  // The pair-wise parser turns "--retry recover b03" into retry="recover":
  // the first request token swallowed as the flag's value. A value that is
  // not a boolean token is really the start of the request — restore it and
  // treat the flag as bare. Same treatment for --binary.
  const auto bare_flag = [&flags, &line](const char* name) {
    if (!flags.has(name)) return false;
    if (flags.get_bool(name, false)) return true;
    const std::string raw = flags.get(name, "");
    const std::string v = util::to_lower(raw);
    if (!v.empty() && v != "false" && v != "0" && v != "no" && v != "off") {
      if (!line.empty()) line += ' ';
      line += raw;
      return true;
    }
    return false;  // explicit --name false
  };
  const bool retry = bare_flag("retry");
  const bool binary = bare_flag("binary");
  const auto& positional = flags.positional();
  for (std::size_t i = 1; i < positional.size(); ++i) {
    if (!line.empty()) line += ' ';
    line += positional[i];
  }
  if (line.empty()) {
    std::fprintf(stderr, "call: no request given (try: call ... health)\n");
    return 2;
  }
  serve::ClientOptions client_options;
  client_options.binary = binary;
  serve::Client client(socket_path, client_options);
  if (!client.connect()) {
    std::fprintf(stderr, "call: cannot connect to %s%s\n",
                 socket_path.c_str(),
                 binary ? " (binary negotiation included)" : "");
    return 1;
  }
  const std::string response =
      retry ? client.request_with_retry(line) : client.request(line);
  std::printf("%s\n", response.c_str());
  return util::starts_with(response, "ok") ? 0 : 1;
}

// Scores a batch of bit pairs through the serving engine — either one
// explicit pair (--bits a,b) or a seeded random workload (--pairs N).
// With --cache-file the run warm-starts from a snapshot and writes one
// back, so repeated invocations hit the cache instead of the model; the
// printed scores checksum makes "bit-identical cold vs warm" checkable
// from the shell.
int cmd_score(const util::FlagParser& flags) {
  serve::InferenceEngine engine(engine_options(flags));
  const std::string bench = flags.get("bench", "b07");
  const std::string cache_file = flags.get("cache-file", "");
  std::size_t warmed = 0;
  if (!cache_file.empty()) warmed = engine.load_cache(cache_file);

  std::vector<std::pair<std::string, std::string>> pairs;
  const std::string bits = flags.get("bits", "");
  if (!bits.empty()) {
    std::vector<std::string> names;
    for (const std::string& piece : util::split(bits, ','))
      if (!util::trim(piece).empty()) names.push_back(util::trim(piece));
    if (names.size() != 2) {
      std::fprintf(stderr, "--bits expects exactly two names, got '%s'\n",
                   bits.c_str());
      return 2;
    }
    pairs.emplace_back(names[0], names[1]);
  } else {
    const int count = std::max(1, flags.get_int("pairs", 200));
    const std::vector<std::string> all = engine.bit_names(bench);
    const int n = static_cast<int>(all.size());
    util::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
    for (int i = 0; i < count; ++i)
      pairs.emplace_back(
          all[static_cast<std::size_t>(rng.uniform_int(0, n - 1))],
          all[static_cast<std::size_t>(rng.uniform_int(0, n - 1))]);
  }

  util::WallTimer timer;
  const std::vector<double> scores = engine.score_batch(bench, pairs);
  const double seconds = timer.seconds();

  // FNV-1a over the raw score bits: two runs scored the same workload
  // identically iff the checksums match.
  const std::uint64_t checksum =
      util::fnv1a(scores.data(), scores.size() * sizeof(double));
  if (!bits.empty())
    std::printf("score %s %s %s = %s\n", bench.c_str(),
                pairs[0].first.c_str(), pairs[0].second.c_str(),
                util::format_double(scores[0], 6).c_str());

  const serve::EngineStats stats = engine.stats();
  std::printf("pairs           : %zu in %.3fs\n", scores.size(), seconds);
  std::printf("scores checksum : %016llx\n",
              static_cast<unsigned long long>(checksum));
  std::printf("cache           : %llu hit(s), %llu miss(es) (%.1f%% hit "
              "rate), %zu entries, %zu warm-loaded\n",
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              100.0 * static_cast<double>(stats.cache_hits) /
                  static_cast<double>(
                      std::max<std::uint64_t>(1, stats.cache_hits +
                                                     stats.cache_misses)),
              stats.cache_entries, warmed);
  if (!cache_file.empty()) {
    engine.save_cache(cache_file);
    std::printf("cache           : saved %zu entries to %s\n",
                stats.cache_entries, cache_file.c_str());
  }
  return 0;
}

// The one subcommand table: the usage screen and the dispatcher in main()
// are both generated from it, so adding a command here is the whole
// registration.
struct Subcommand {
  const char* name;
  const char* flags_help;
  int (*run)(const util::FlagParser&);
};

constexpr Subcommand kSubcommands[] = {
    {"gen", "--bench b05 --out c.bench [--scale 1.0] [--words c.words]",
     cmd_gen},
    {"stats", "--in c.bench", cmd_stats},
    {"convert", "--in c.bench --out c.v", cmd_convert},
    {"corrupt", "--in c.bench --out d.bench [--r-index 0.5] [--seed 7]",
     cmd_corrupt},
    {"optimize", "--in c.bench --out e.bench", cmd_optimize},
    {"train",
     "--out model.bin [--benchmarks b03,b08,...] [--scale 0.25] "
     "[--epochs 3] [--max-samples 250]",
     cmd_train},
    {"recover",
     "--in c.bench [--model model.bin] [--threads N] [--words truth] "
     "[--structural] [--report] [--json] [--cache-file cache.rbpc]",
     cmd_recover},
    {"analyze", "--in c.bench --bits q0,q1,q2", cmd_analyze},
    {"dot", "--in c.bench --out c.dot [--words truth]", cmd_dot},
    {"lint",
     "--in c.bench [--words truth] [--format text|csv] [--out report.csv] "
     "[--fail-on-warn]",
     cmd_lint},
    {"serve",
     "[--socket /tmp/rebert.sock] [--threads N] [--batch 16] "
     "[--model model.bin] [--manifest models.manifest] [--scale 0.25] "
     "[--cache-file cache.rbpc] [--snapshot-every 64] [--max-inflight 0] "
     "[--max-inflight-per-bench 0] [--retry-after-ms 50] "
     "[--deadline-ms 0] [--max-connections 64] [--listen-backlog 0] "
     "[--dispatch-threads 0] [--binary true|false]",
     cmd_serve},
    {"route",
     "--socket /tmp/router.sock [--backends 2 | --backend-sockets "
     "a[@w],b[@w]] [--backend-weights 1,2] [--replicas 2] "
     "[--mirror-queue-depth 256] [--queue-depth 0] [--queue-timeout-ms 250] "
     "[--vnodes 64] [--probe-interval-ms 200] [--restart-jitter-pct 15] "
     "[+ serve flags for spawned backends; --cache-file gives each backend "
     "<file>.backendN]",
     cmd_route},
    {"call",
     "--socket /tmp/router.sock [--retry] [--binary] <request tokens...>",
     cmd_call},
    {"score",
     "[--bench b07] [--pairs 200 | --bits a,b] [--seed 1] "
     "[--cache-file cache.rbpc] [--model model.bin] [--threads N]",
     cmd_score},
};

int usage() {
  std::string verbs;
  for (const Subcommand& command : kSubcommands) {
    if (!verbs.empty()) verbs += '|';
    verbs += command.name;
  }
  std::fprintf(stderr, "usage: rebert_cli <%s> [flags]\n\n", verbs.c_str());
  for (const Subcommand& command : kSubcommands)
    std::fprintf(stderr, "  rebert_cli %-11s %s\n", command.name,
                 command.flags_help);
  std::fprintf(stderr,
               "\nglobal: [--kernels auto|scalar|avx2] selects the compute "
               "backend (default: REBERT_KERNELS, then cpuid)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const util::FlagParser flags(argc, argv);
  if (flags.positional().empty()) return usage();
  // --kernels is global: every compute-bearing subcommand (train, recover,
  // score, serve, and backends spawned by route) honors it.
  // Unset keeps the REBERT_KERNELS / cpuid auto-selection.
  const std::string kernels_spec = flags.get("kernels", "");
  if (!kernels_spec.empty()) {
    std::string kernels_error;
    if (!kernels::apply_backend_spec(kernels_spec, &kernels_error)) {
      std::fprintf(stderr, "invalid --kernels %s: %s\n",
                   kernels_spec.c_str(), kernels_error.c_str());
      return 2;
    }
  }
  const std::string& command = flags.positional()[0];
  try {
    for (const Subcommand& entry : kSubcommands)
      if (command == entry.name) return entry.run(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
