// Ablation — prediction-cache acceleration (the paper's conclusion notes
// "opportunities to accelerate ReBERT"; this is one).
//
// Measures the wall time of the paper's per-pair recover (every filter
// survivor forwarded) against recover_words() with the lossless
// sequence-pair prediction cache, and verifies the partitions match.
#include <cstdio>

#include "bench/common.h"
#include "util/csv.h"
#include "util/string_utils.h"
#include "util/table.h"

int main() {
  using namespace rebert;
  benchharness::BenchSetup setup = benchharness::load_bench_setup();
  if (util::env_string("REBERT_BENCHMARKS", "").empty())
    setup.benchmark_names = {"b03", "b04", "b05", "b08", "b11", "b12"};
  const std::vector<core::CircuitData> circuits =
      benchharness::generate_suite(setup);

  // Weights do not matter for runtime; an untrained model suffices.
  bert::BertPairClassifier model(core::make_model_config(setup.options));

  std::printf("=== Ablation: prediction cache (scale %.2f) ===\n",
              setup.scale);
  util::TextTable table({"benchmark", "uncached (s)", "cached (s)",
                         "speedup", "hit rate (%)", "identical"});
  util::CsvWriter csv("ablation_cache.csv",
                      {"benchmark", "uncached_s", "cached_s", "hit_rate"});

  for (const auto& circuit : circuits) {
    core::PipelineOptions cached = setup.options.pipeline;
    cached.use_prediction_cache = true;

    const core::RecoveryResult slow = benchharness::recover_words_per_pair(
        circuit.netlist, model, setup.options.pipeline);
    const core::RecoveryResult fast =
        core::recover_words(circuit.netlist, model, cached);

    const bool identical = slow.labels == fast.labels;
    table.add_row({circuit.name,
                   util::format_double(slow.total_seconds, 3),
                   util::format_double(fast.total_seconds, 3),
                   util::format_double(
                       fast.total_seconds > 0
                           ? slow.total_seconds / fast.total_seconds
                           : 0.0, 2) + "x",
                   util::format_double(fast.cache_hit_rate * 100.0, 1),
                   identical ? "yes" : "NO"});
    csv.add_row({circuit.name, util::format_double(slow.total_seconds, 4),
                 util::format_double(fast.total_seconds, 4),
                 util::format_double(fast.cache_hit_rate, 3)});
  }
  table.print();
  std::printf("CSV: ablation_cache.csv\n");
  return 0;
}
