// Warm-start serving: QPS of a cold engine vs one restarted onto an RBPC
// cache snapshot (persist/snapshot.h), over the same score workload. The
// headline numbers for the persistence layer: snapshot save/load wall
// time, warm-start speedup, and the warm run's cache hit rate (which the
// acceptance bar requires to be >= 0.90 on a repeated workload).
//
// Extra knobs on top of the common ones (bench/common.h):
//   REBERT_SERVE_BENCH     benchmark to serve           (default b07)
//   REBERT_SERVE_REQUESTS  score requests per run       (default 400)
//   REBERT_WARM_THREADS    engine threads               (default 4)
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "serve/engine.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

struct RunResult {
  double qps = 0.0;
  double seconds = 0.0;
  double hit_rate = 0.0;
  std::size_t warm_entries = 0;
};

}  // namespace

int main() {
  using namespace rebert;
  benchharness::BenchSetup setup = benchharness::load_bench_setup();

  const std::string bench = util::env_string("REBERT_SERVE_BENCH", "b07");
  const int requests = util::env_int("REBERT_SERVE_REQUESTS", 400);
  const int threads = util::env_int("REBERT_WARM_THREADS", 4);
  const std::string snapshot = "serve_warm_start.rbpc";

  std::printf("=== Warm-start serving: %s (scale %.2f), %d requests, "
              "%d thread(s) ===\n",
              bench.c_str(), setup.scale, requests, threads);

  serve::EngineOptions options;
  options.num_threads = threads;
  options.suite_scale = setup.scale;
  options.experiment = setup.options;

  // The workload: a fixed seeded list of random bit pairs, so the cold and
  // warm runs (in separate engines) score exactly the same requests.
  std::vector<std::pair<std::string, std::string>> workload;
  {
    serve::InferenceEngine probe(options);
    const std::vector<std::string> bits = probe.bit_names(bench);
    util::Rng rng(setup.options.dataset.seed);
    const int n = static_cast<int>(bits.size());
    workload.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
      const auto a = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      const auto b = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      workload.emplace_back(bits[a], bits[b]);
    }
  }

  auto run = [&](serve::InferenceEngine& engine) {
    RunResult result;
    util::WallTimer timer;
    (void)engine.score_batch(bench, workload);
    result.seconds = timer.seconds();
    result.qps = requests / result.seconds;
    const serve::EngineStats stats = engine.stats();
    const std::uint64_t lookups = stats.cache_hits + stats.cache_misses;
    result.hit_rate =
        lookups == 0 ? 0.0
                     : static_cast<double>(stats.cache_hits) / lookups;
    result.warm_entries = stats.warm_entries;
    return result;
  };

  // Cold run: empty cache, every unique pair costs a model forward.
  serve::InferenceEngine cold(options);
  (void)cold.warm(bench);  // preload the netlist so timing is pure scoring
  const RunResult cold_run = run(cold);

  util::WallTimer save_timer;
  cold.save_cache(snapshot);
  const double save_s = save_timer.seconds();

  // Warm run: a fresh engine (the restart) loads the snapshot first.
  serve::InferenceEngine warm(options);
  (void)warm.warm(bench);
  util::WallTimer load_timer;
  const std::size_t warmed = warm.load_cache(snapshot);
  const double load_s = load_timer.seconds();
  const RunResult warm_run = run(warm);

  util::TextTable table(
      {"run", "qps", "seconds", "hit rate", "warm entries", "speedup"});
  util::CsvWriter csv("serve_warm_start.csv",
                      {"run", "qps", "seconds", "hit_rate", "warm_entries",
                       "speedup"});
  const double speedup = warm_run.qps / cold_run.qps;
  table.add_row({"cold", util::format_double(cold_run.qps, 1),
                 util::format_double(cold_run.seconds, 3),
                 util::format_double(cold_run.hit_rate, 3), "0", "1.00"});
  table.add_row({"warm", util::format_double(warm_run.qps, 1),
                 util::format_double(warm_run.seconds, 3),
                 util::format_double(warm_run.hit_rate, 3),
                 std::to_string(warm_run.warm_entries),
                 util::format_double(speedup, 2)});
  csv.add_row({"cold", util::format_double(cold_run.qps, 1),
               util::format_double(cold_run.seconds, 3),
               util::format_double(cold_run.hit_rate, 3), "0", "1.00"});
  csv.add_row({"warm", util::format_double(warm_run.qps, 1),
               util::format_double(warm_run.seconds, 3),
               util::format_double(warm_run.hit_rate, 3),
               std::to_string(warm_run.warm_entries),
               util::format_double(speedup, 2)});
  table.print();

  std::printf("snapshot: %zu entries, save %.1f ms, load %.1f ms (%s)\n",
              warmed, save_s * 1e3, load_s * 1e3, snapshot.c_str());
  if (warm_run.hit_rate < 0.90)
    std::printf("WARNING: warm hit rate %.3f below the 0.90 acceptance "
                "bar\n",
                warm_run.hit_rate);

  std::printf("wrote serve_warm_start.csv\n");
  return 0;
}
