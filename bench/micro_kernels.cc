// Microbenchmarks (google-benchmark) of the kernels the pipeline spends
// its time in: tokenization, Jaccard filtering, attention forward, GEMM,
// ARI, corruption, structural matching — plus the per-backend kernel
// rows (GEMM GFLOP/s, fused softmax/LayerNorm/GELU) introduced with the
// dispatched kernel subsystem (src/kernels).
//
// Besides the usual google-benchmark console output, the binary writes a
// machine-readable summary to BENCH_kernels.json (override the path with
// REBERT_BENCH_KERNELS_JSON; set it empty to skip): per-backend GEMM
// GFLOP/s, fused-op element rates, and cold-cache serve score latencies
// (p50/p95, every request a cache miss) so CI can diff backends run over
// run. Acceptance for the AVX2 backend: >= 4x scalar GEMM GFLOP/s.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bert/attention.h"
#include "bert/model.h"
#include "circuitgen/suite.h"
#include "kernels/backend.h"
#include "kernels/kernels.h"
#include "metrics/clustering.h"
#include "nl/corruption.h"
#include "rebert/filter.h"
#include "rebert/tokenizer.h"
#include "serve/engine.h"
#include "structural/matching.h"
#include "tensor/ops.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace rebert;

const gen::GeneratedCircuit& circuit_b05() {
  static const gen::GeneratedCircuit circuit =
      gen::generate_benchmark("b05");
  return circuit;
}

void BM_TokenizeBit(benchmark::State& state) {
  const auto& circuit = circuit_b05();
  const core::Tokenizer tokenizer(
      {.backtrace_depth = static_cast<int>(state.range(0)),
       .tree_code_dim = 16,
       .max_seq_len = 512});
  const auto bits = nl::extract_bits(circuit.netlist);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tokenizer.tokenize_net(circuit.netlist, bits[i % bits.size()].d_net));
    ++i;
  }
}
BENCHMARK(BM_TokenizeBit)->Arg(4)->Arg(6)->Arg(8);

void BM_JaccardFilter(benchmark::State& state) {
  const auto& circuit = circuit_b05();
  const core::Tokenizer tokenizer(
      {.backtrace_depth = 6, .tree_code_dim = 16, .max_seq_len = 512});
  const auto sequences = tokenizer.tokenize_bits(circuit.netlist);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = sequences[i % sequences.size()];
    const auto& b = sequences[(i + 7) % sequences.size()];
    benchmark::DoNotOptimize(
        core::jaccard_similarity(a.token_ids, b.token_ids));
    ++i;
  }
}
BENCHMARK(BM_JaccardFilter);

void BM_AttentionForward(benchmark::State& state) {
  bert::BertConfig config;
  config.hidden = 64;
  config.num_heads = 4;
  config.max_seq_len = 512;
  config.tree_code_dim = 16;
  util::Rng rng(1);
  bert::MultiHeadSelfAttention attention("bench", config, rng);
  const tensor::Tensor x =
      tensor::Tensor::randn({static_cast<int>(state.range(0)), 64}, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(attention.forward(x, nullptr));
}
BENCHMARK(BM_AttentionForward)->Arg(32)->Arg(64)->Arg(128);

void BM_Matmul(benchmark::State& state) {
  util::Rng rng(2);
  const int n = static_cast<int>(state.range(0));
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(tensor::matmul(a, b));
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(n) *
                          n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

// ---- per-backend kernel rows -----------------------------------------
//
// These go through table_for(backend) directly, so one run shows every
// backend the host supports side by side regardless of REBERT_KERNELS.

void BM_KernelGemm(benchmark::State& state,
                   kernels::Backend backend) {
  const kernels::KernelTable& table = kernels::table_for(backend);
  util::Rng rng(11);
  const int n = static_cast<int>(state.range(0));
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    table.gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void BM_KernelSoftmaxRows(benchmark::State& state,
                          kernels::Backend backend) {
  const kernels::KernelTable& table = kernels::table_for(backend);
  util::Rng rng(12);
  const int rows = 128, cols = static_cast<int>(state.range(0));
  const tensor::Tensor x = tensor::Tensor::randn({rows, cols}, rng, 3.0f);
  tensor::Tensor y = x;
  for (auto _ : state) {
    std::copy(x.data(), x.data() + x.numel(), y.data());
    table.softmax_rows(y.data(), rows, cols);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_KernelLayerNorm(benchmark::State& state,
                        kernels::Backend backend) {
  const kernels::KernelTable& table = kernels::table_for(backend);
  util::Rng rng(13);
  const int rows = 128, cols = static_cast<int>(state.range(0));
  const tensor::Tensor x = tensor::Tensor::randn({rows, cols}, rng);
  const tensor::Tensor gamma = tensor::Tensor::full({cols}, 1.0f);
  const tensor::Tensor beta = tensor::Tensor::zeros({cols});
  tensor::Tensor y({rows, cols});
  for (auto _ : state) {
    table.layer_norm(x.data(), gamma.data(), beta.data(), 1e-5f, rows,
                     cols, y.data(), nullptr, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_KernelGelu(benchmark::State& state, kernels::Backend backend) {
  const kernels::KernelTable& table = kernels::table_for(backend);
  util::Rng rng(14);
  const int n = static_cast<int>(state.range(0));
  const tensor::Tensor x = tensor::Tensor::randn({n}, rng, 2.0f);
  tensor::Tensor y({n});
  for (auto _ : state) {
    table.gelu(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void register_backend_benchmarks() {
  for (kernels::Backend backend :
       {kernels::Backend::kScalar, kernels::Backend::kAvx2}) {
    if (!kernels::backend_available(backend)) continue;
    const std::string suffix = kernels::backend_name(backend);
    benchmark::RegisterBenchmark(("BM_KernelGemm/" + suffix).c_str(),
                                 BM_KernelGemm, backend)
        ->Arg(64)->Arg(128)->Arg(256);
    benchmark::RegisterBenchmark(
        ("BM_KernelSoftmaxRows/" + suffix).c_str(), BM_KernelSoftmaxRows,
        backend)
        ->Arg(128)->Arg(512);
    benchmark::RegisterBenchmark(("BM_KernelLayerNorm/" + suffix).c_str(),
                                 BM_KernelLayerNorm, backend)
        ->Arg(64)->Arg(256);
    benchmark::RegisterBenchmark(("BM_KernelGelu/" + suffix).c_str(),
                                 BM_KernelGelu, backend)
        ->Arg(1 << 14);
  }
}

/// b05's bit sequences and an untrained eval-profile model, shared by the
/// pair-prediction rows.
struct PairPredictionSetup {
  PairPredictionSetup()
      : tokenizer({.backtrace_depth = 6, .tree_code_dim = 16,
                   .max_seq_len = 256}),
        sequences(tokenizer.tokenize_bits(circuit_b05().netlist)),
        model(config()) {}

  static bert::BertConfig config() {
    bert::BertConfig config = bert::eval_config(32, 256);
    config.tree_code_dim = 16;
    return config;
  }

  /// The i-th pair of the fixed pair stream both rows walk.
  bert::EncodedSequence pair(std::size_t i) const {
    return tokenizer.encode_pair(sequences[i % sequences.size()],
                                 sequences[(i + 3) % sequences.size()]);
  }

  core::Tokenizer tokenizer;
  std::vector<core::BitSequence> sequences;
  bert::BertPairClassifier model;
};

void BM_PairPrediction(benchmark::State& state) {
  const PairPredictionSetup setup;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto pair = setup.pair(i++);
    benchmark::DoNotOptimize(setup.model.predict_same_word_probability(pair));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PairPrediction);

/// The same pair stream scored range(0) pairs per stacked batched call;
/// items/s is forwards/s, comparable with BM_PairPrediction's.
void BM_PairPredictionBatched(benchmark::State& state) {
  const PairPredictionSetup setup;
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<bert::EncodedSequence> pairs(batch);
  std::vector<const bert::EncodedSequence*> inputs;
  for (const bert::EncodedSequence& pair : pairs) inputs.push_back(&pair);
  std::size_t i = 0;
  for (auto _ : state) {
    for (bert::EncodedSequence& pair : pairs) pair = setup.pair(i++);
    benchmark::DoNotOptimize(
        setup.model.predict_same_word_probabilities(inputs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_PairPredictionBatched)->Arg(16);

void BM_AdjustedRandIndex(benchmark::State& state) {
  util::Rng rng(3);
  const int n = static_cast<int>(state.range(0));
  std::vector<int> truth(static_cast<std::size_t>(n)),
      predicted(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    truth[static_cast<std::size_t>(i)] = i / 8;
    predicted[static_cast<std::size_t>(i)] = rng.uniform_int(0, n / 8);
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(metrics::adjusted_rand_index(truth, predicted));
}
BENCHMARK(BM_AdjustedRandIndex)->Arg(100)->Arg(1000);

void BM_CorruptNetlist(benchmark::State& state) {
  const auto& circuit = circuit_b05();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nl::corrupt_netlist(
        circuit.netlist, {.r_index = 0.5, .seed = seed++}));
  }
}
BENCHMARK(BM_CorruptNetlist);

void BM_StructuralRecovery(benchmark::State& state) {
  const auto& circuit = circuit_b05();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        structural::recover_words_structural(circuit.netlist));
}
BENCHMARK(BM_StructuralRecovery);

// ---- BENCH_kernels.json ----------------------------------------------

/// Times fn() repeatedly for ~min_seconds and returns seconds per call.
double time_per_call(const std::function<void()>& fn,
                     double min_seconds = 0.1) {
  fn();  // warm up (page in, grow the arena)
  int iters = 1;
  for (;;) {
    util::WallTimer timer;
    for (int i = 0; i < iters; ++i) fn();
    const double elapsed = timer.seconds();
    if (elapsed >= min_seconds) return elapsed / iters;
    iters = elapsed > 0.0
                ? static_cast<int>(iters * std::max(
                      2.0, 1.2 * min_seconds / elapsed))
                : iters * 16;
  }
}

struct GemmPoint {
  int n = 0;
  double gflops = 0.0;
};

struct BackendReport {
  std::string name;
  std::vector<GemmPoint> gemm;
  double softmax_rows_per_s = 0.0;    // 128x512 rows
  double layer_norm_rows_per_s = 0.0; // 128x256 rows
  double gelu_elems_per_s = 0.0;      // 16k elements
  double serve_p50_ms = 0.0;          // cold-cache score latency
  double serve_p95_ms = 0.0;
};

BackendReport measure_backend(kernels::Backend backend) {
  const kernels::KernelTable& table = kernels::table_for(backend);
  BackendReport report;
  report.name = kernels::backend_name(backend);
  util::Rng rng(31);

  for (const int n : {64, 128, 256}) {
    const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
    const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
    tensor::Tensor c({n, n});
    const double seconds = time_per_call(
        [&] { table.gemm(a.data(), b.data(), c.data(), n, n, n); });
    report.gemm.push_back(
        {n, 2.0 * n * n * n / seconds / 1e9});
  }
  {
    const int rows = 128, cols = 512;
    const tensor::Tensor x = tensor::Tensor::randn({rows, cols}, rng, 3.0f);
    tensor::Tensor y = x;
    const double seconds = time_per_call([&] {
      std::copy(x.data(), x.data() + x.numel(), y.data());
      table.softmax_rows(y.data(), rows, cols);
    });
    report.softmax_rows_per_s = rows / seconds;
  }
  {
    const int rows = 128, cols = 256;
    const tensor::Tensor x = tensor::Tensor::randn({rows, cols}, rng);
    const tensor::Tensor gamma = tensor::Tensor::full({cols}, 1.0f);
    const tensor::Tensor beta = tensor::Tensor::zeros({cols});
    tensor::Tensor y({rows, cols});
    const double seconds = time_per_call([&] {
      table.layer_norm(x.data(), gamma.data(), beta.data(), 1e-5f, rows,
                       cols, y.data(), nullptr, nullptr);
    });
    report.layer_norm_rows_per_s = rows / seconds;
  }
  {
    const int n = 1 << 14;
    const tensor::Tensor x = tensor::Tensor::randn({n}, rng, 2.0f);
    tensor::Tensor y({n});
    const double seconds =
        time_per_call([&] { table.gelu(x.data(), y.data(), n); });
    report.gelu_elems_per_s = n / seconds;
  }
  return report;
}

/// Cold-cache serve latency: a fresh engine per backend with the
/// prediction cache disabled, so every score is a full model forward.
/// (Name-distinct pairs are not enough — symmetric circuits tokenize
/// identical bits to identical sequences, which share a cache key.) This
/// is the p50/p95 a cold replica shows right after (re)start, before the
/// warm tier or the request mix fills the cache.
void measure_serve(kernels::Backend backend, BackendReport* report) {
  kernels::set_backend(backend);
  serve::EngineOptions options;
  options.num_threads = 1;
  options.suite_scale = 0.25;
  options.experiment.pipeline.use_prediction_cache = false;
  serve::InferenceEngine engine(options);
  const std::string bench = "b03";
  const int num_bits = engine.warm(bench);
  const std::vector<std::string> bits = engine.bit_names(bench);
  std::vector<double> latencies;
  const int target = 60;
  for (int i = 0; i < num_bits && static_cast<int>(latencies.size()) <
                                     target; ++i) {
    for (int j = i + 1; j < num_bits && static_cast<int>(
                            latencies.size()) < target; ++j) {
      util::WallTimer timer;
      engine.score(bench, bits[static_cast<std::size_t>(i)],
                   bits[static_cast<std::size_t>(j)]);
      latencies.push_back(timer.seconds());
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&](double p) {
    const std::size_t index = std::min(
        latencies.size() - 1,
        static_cast<std::size_t>(p * latencies.size()));
    return 1000.0 * latencies[index];
  };
  report->serve_p50_ms = pct(0.50);
  report->serve_p95_ms = pct(0.95);
}

void write_kernels_json() {
  const std::string path = util::env_string("REBERT_BENCH_KERNELS_JSON",
                                            "BENCH_kernels.json");
  if (path.empty()) return;
  std::vector<BackendReport> reports;
  for (kernels::Backend backend :
       {kernels::Backend::kScalar, kernels::Backend::kAvx2}) {
    if (!kernels::backend_available(backend)) continue;
    BackendReport report = measure_backend(backend);
    measure_serve(backend, &report);
    reports.push_back(std::move(report));
  }
  // Restore auto-dispatch after the per-backend serve runs.
  kernels::set_backend(kernels::avx2_available()
                           ? kernels::Backend::kAvx2
                           : kernels::Backend::kScalar);

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "micro_kernels: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"backends\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const BackendReport& r = reports[i];
    std::fprintf(out, "    {\n      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(out, "      \"gemm_gflops\": {");
    for (std::size_t g = 0; g < r.gemm.size(); ++g)
      std::fprintf(out, "%s\"%d\": %.2f", g ? ", " : "", r.gemm[g].n,
                   r.gemm[g].gflops);
    std::fprintf(out, "},\n");
    std::fprintf(out, "      \"softmax_rows_per_s\": %.0f,\n",
                 r.softmax_rows_per_s);
    std::fprintf(out, "      \"layer_norm_rows_per_s\": %.0f,\n",
                 r.layer_norm_rows_per_s);
    std::fprintf(out, "      \"gelu_elems_per_s\": %.0f,\n",
                 r.gelu_elems_per_s);
    std::fprintf(out, "      \"serve_cold_p50_ms\": %.3f,\n",
                 r.serve_p50_ms);
    std::fprintf(out, "      \"serve_cold_p95_ms\": %.3f\n",
                 r.serve_p95_ms);
    std::fprintf(out, "    }%s\n", i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("micro_kernels: wrote %s\n", path.c_str());
  for (const BackendReport& r : reports)
    std::printf(
        "  %-6s gemm256 %7.2f GFLOP/s  serve cold p50 %.2fms p95 %.2fms\n",
        r.name.c_str(), r.gemm.back().gflops, r.serve_p50_ms,
        r.serve_p95_ms);
}

}  // namespace

int main(int argc, char** argv) {
  register_backend_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_kernels_json();
  return 0;
}
