// Shared helpers for the experiment harnesses (Table I-III, ablations and
// the serve benches).
//
// Every bench is environment-tunable so the same binary scales from a
// minutes-long smoke run (the defaults) to a paper-sized overnight sweep:
//   REBERT_SCALE        suite scale factor in (0,1]            (default .25)
//   REBERT_BENCHMARKS   comma list, e.g. "b03,b08"   (default: b03..b15)
//   REBERT_FULL         1 = all 12 benchmarks at full scale
//   REBERT_EPOCHS       fine-tuning epochs                     (default 3)
//   REBERT_MAX_SAMPLES  training-pair cap per circuit          (default 250)
//   REBERT_DEPTH        backtrace depth k                      (default 6)
//   REBERT_SEED         global experiment seed                 (default 7)
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "circuitgen/suite.h"
#include "rebert/pipeline.h"
#include "util/env.h"
#include "util/string_utils.h"
#include "util/timer.h"

namespace rebert::benchharness {

inline core::CircuitData to_circuit_data(gen::GeneratedCircuit&& generated,
                                         const std::string& name) {
  return core::CircuitData{name, std::move(generated.netlist),
                           std::move(generated.words)};
}

struct BenchSetup {
  std::vector<std::string> benchmark_names;
  double scale = 0.25;
  core::ExperimentOptions options;
};

inline BenchSetup load_bench_setup() {
  BenchSetup setup;
  const bool full = util::env_bool("REBERT_FULL", false);
  setup.scale = util::env_double("REBERT_SCALE", full ? 1.0 : 0.25);

  const std::string default_list =
      full ? "b03,b04,b05,b07,b08,b11,b12,b13,b14,b15,b17,b18"
           : "b03,b04,b05,b07,b08,b11,b12,b13,b14,b15";
  const std::string list = util::env_string("REBERT_BENCHMARKS",
                                            default_list);
  for (const std::string& piece : util::split(list, ',')) {
    const std::string name = util::trim(piece);
    if (!name.empty()) setup.benchmark_names.push_back(name);
  }

  core::ExperimentOptions& options = setup.options;
  options.pipeline.tokenizer.backtrace_depth =
      util::env_int("REBERT_DEPTH", 6);
  options.pipeline.tokenizer.tree_code_dim = 16;
  options.pipeline.tokenizer.max_seq_len = 256;
  options.dataset.max_samples_per_circuit =
      util::env_int("REBERT_MAX_SAMPLES", 250);
  options.dataset.seed = static_cast<std::uint64_t>(
      util::env_int("REBERT_SEED", 7));
  options.training.epochs = util::env_int("REBERT_EPOCHS", 3);
  options.training.batch_size = 16;
  options.training.learning_rate = 5e-4;
  options.corruption_seed = options.dataset.seed ^ 0x5a5a5a5aULL;
  return setup;
}

inline std::vector<core::CircuitData> generate_suite(
    const BenchSetup& setup) {
  std::vector<core::CircuitData> circuits;
  circuits.reserve(setup.benchmark_names.size());
  for (const std::string& name : setup.benchmark_names)
    circuits.push_back(
        to_circuit_data(gen::generate_benchmark(name, setup.scale), name));
  return circuits;
}

/// The paper-faithful recover (§II-C/D): every pair that survives the
/// Jaccard filter is encoded and forwarded on its own, serially, then
/// grouped. recover_words forwards once per sequence-class pair instead,
/// with the cache on or off, so the paper's per-pair runtime is timed here.
inline core::RecoveryResult recover_words_per_pair(
    const nl::Netlist& netlist, const bert::BertPairClassifier& model,
    const core::PipelineOptions& options) {
  core::RecoveryResult result;
  const util::WallTimer total;
  util::WallTimer phase;
  const core::Tokenizer tokenizer(options.tokenizer);
  const std::vector<core::BitSequence> bits = tokenizer.tokenize_bits(netlist);
  result.tokenize_seconds = phase.seconds();

  phase.reset();
  const core::ScoreMatrix scores =
      core::build_score_matrix(bits, options.filter, [&](int i, int j) {
        return model.predict_same_word_probability(
            tokenizer.encode_pair(bits[static_cast<std::size_t>(i)],
                                  bits[static_cast<std::size_t>(j)]));
      });
  result.scoring_seconds = phase.seconds();
  result.filtered_fraction = scores.filtered_fraction();

  phase.reset();
  result.labels = core::group_words(scores, options.grouping);
  result.grouping_seconds = phase.seconds();
  result.num_words = metrics::num_clusters(result.labels);
  result.total_seconds = total.seconds();
  return result;
}

/// Nearest-index percentile of an ascending-sorted sample: the element at
/// floor(p * n), clamped to the last one; 0 for an empty sample.
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted.size() - 1, static_cast<std::size_t>(p * sorted.size()));
  return sorted[index];
}

inline const std::vector<double>& r_index_sweep() {
  static const std::vector<double> sweep{0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  return sweep;
}

}  // namespace rebert::benchharness
