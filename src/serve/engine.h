// InferenceEngine — the long-lived core of the serving runtime.
//
// Owns a ModelRegistry of immutable BertPairClassifier snapshots (const
// after construction; the inference path is compiler-enforced read-only,
// see bert/model.h), a runtime::ThreadPool, a sharded thread-safe
// PredictionCache shared by all requests to the default model (non-default
// registry entries carry private caches — see model_registry.h), and a
// lazily-populated registry of benchmark contexts (tokenized bit
// universes). score requests are micro-batched into fixed-size forward
// batches and fanned out across the pool; recover requests reuse the pool
// through core::score_all_pairs.
//
// Thread safety: every public method may be called from any number of
// threads concurrently (one per connection in the socket server). The
// models and tokenizer are read-only, the caches are internally sharded,
// bench loading is serialized behind a mutex, and request counters are
// relaxed atomics.
//
// Robustness (see DESIGN.md "Overload-safe serving"):
//   * Admission control — try_admit() hands out at most max_inflight
//     concurrent request slots; callers answer `err overloaded
//     retry_after_ms=<n>` when it declines instead of queueing unboundedly.
//     try_admit(bench) additionally enforces max_inflight_per_bench so one
//     hot bench cannot monopolize the whole budget.
//   * Deadlines — score/recover take an optional CancellationToken; arm it
//     with set_deadline_after_ms and the work stops cooperatively between
//     micro-batches / parallel_for chunks, surfacing runtime::CancelledError.
//   * Graceful degradation — when the model path fails (injected fault,
//     NaN tripwire, bad checkpoint) recover() falls back to the structural
//     matching baseline (Meade et al., ISCAS'16), which needs no model, and
//     tags the summary `degraded`. A registry entry whose checkpoint never
//     loaded degrades the same way without attempting a forward.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bert/model.h"
#include "nl/words.h"
#include "rebert/pipeline.h"
#include "rebert/prediction_cache.h"
#include "rebert/tokenizer.h"
#include "runtime/latch.h"
#include "runtime/thread_pool.h"
#include "serve/model_registry.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace rebert::serve {

struct EngineOptions {
  /// Worker threads in the engine pool: 0 = REBERT_THREADS / hardware.
  int num_threads = 0;
  /// Pair sequences per forward micro-batch. Requests smaller than this
  /// run as one batch; larger ones split into ceil(n / batch_size) pool
  /// tasks.
  int batch_size = 16;
  /// Shards of the prediction cache (0 = default; see prediction_cache.h).
  int cache_shards = 0;
  /// circuitgen scale for generated benchmark names ("b03".."b18").
  double suite_scale = 0.25;
  /// Weight file produced by `rebert_cli train --save`. Empty = fresh
  /// (untrained) weights — scores are meaningless but the runtime paths
  /// are fully exercised, which is what the serve tests and benches need.
  /// Ignored when manifest_path is set.
  std::string model_path;
  /// Model manifest (see model_registry.h) declaring several named
  /// snapshots behind this engine. Empty = a single-entry registry built
  /// from model_path.
  std::string manifest_path;
  /// Model dimensions and pipeline knobs (tokenizer/filter/grouping). The
  /// model config is derived with core::make_model_config, so it must
  /// match the checkpoints when model_path / manifest_path are set.
  core::ExperimentOptions experiment;
  /// Admission budget: score/recover requests concurrently in flight
  /// before try_admit() starts shedding. 0 = unlimited (no shedding).
  int max_inflight = 0;
  /// Per-bench admission budget: requests concurrently in flight against
  /// any one bench before try_admit(bench) sheds for that bench only.
  /// 0 = unlimited. Enforced on top of max_inflight.
  int max_inflight_per_bench = 0;
  /// Advisory client backoff carried by shed responses
  /// (`err overloaded retry_after_ms=<n>`).
  int retry_after_ms = 50;
};

struct EngineStats {
  int threads = 0;
  int batch_size = 0;
  int cache_shards = 0;
  std::uint64_t score_requests = 0;
  std::uint64_t recover_requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t cache_entries = 0;
  std::size_t warm_entries = 0;  // entries mapped by load_cache()
  std::size_t benches_loaded = 0;
  double uptime_seconds = 0.0;
  // Robustness gauges and counters (see class comment).
  int inflight = 0;            // admitted requests right now
  int max_inflight = 0;        // 0 = unlimited
  bool model_healthy = true;   // last model forward succeeded
  std::uint64_t shed_requests = 0;       // admission declines (all causes)
  std::uint64_t deadline_exceeded = 0;   // requests cancelled by deadline
  std::uint64_t degraded_recoveries = 0; // recovers answered structurally
  std::uint64_t faults_injected = 0;     // trips of the global FaultInjector
  // Multi-model registry and per-bench budgets.
  int models = 1;                          // registry entries
  int unhealthy_models = 0;                // entries currently unhealthy
  int max_inflight_per_bench = 0;          // 0 = unlimited
  std::uint64_t bench_shed_requests = 0;   // per-bench budget declines
  // Active compute-kernel backend ("scalar" / "avx2"); see kernels/backend.h.
  std::string kernels;
};

struct RecoverSummary {
  int num_bits = 0;
  int num_words = 0;
  double filtered_fraction = 0.0;
  double cache_hit_rate = 0.0;  // engine-lifetime rate at completion
  double seconds = 0.0;
  /// True when the model path failed and the words came from the
  /// structural baseline instead (response tag `degraded=structural`).
  bool degraded = false;
};

class InferenceEngine {
 public:
  /// RAII admission slot. Falsy when the budget was exhausted and the
  /// request must be shed; releases its slot(s) on destruction otherwise.
  /// A slot from try_admit(bench) also holds that bench's per-bench slot.
  class Admission {
   public:
    Admission() = default;
    explicit Admission(InferenceEngine* engine) : engine_(engine) {}
    Admission(Admission&& other) noexcept
        : engine_(other.engine_), bench_(std::move(other.bench_)) {
      other.engine_ = nullptr;
      other.bench_.clear();
    }
    Admission& operator=(Admission&& other) noexcept {
      if (this != &other) {
        release();
        engine_ = other.engine_;
        bench_ = std::move(other.bench_);
        other.engine_ = nullptr;
        other.bench_.clear();
      }
      return *this;
    }
    Admission(const Admission&) = delete;
    Admission& operator=(const Admission&) = delete;
    ~Admission() { release(); }
    explicit operator bool() const { return engine_ != nullptr; }

   private:
    void release();
    InferenceEngine* engine_ = nullptr;
    std::string bench_;  // non-empty: also holds this bench's slot
    friend class InferenceEngine;
  };

  explicit InferenceEngine(EngineOptions options);

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Reserve an in-flight slot for one score/recover request. Falsy when
  /// max_inflight slots are taken — the caller must answer
  /// `err overloaded` (the decline is counted in shed_requests). With
  /// max_inflight == 0 admission always succeeds but the in-flight gauge
  /// still tracks.
  Admission try_admit() { return try_admit(std::string()); }

  /// Like try_admit(), but additionally enforces max_inflight_per_bench
  /// for `bench` (per-bench declines count in both bench_shed_requests
  /// and shed_requests). An empty bench skips the per-bench check.
  Admission try_admit(const std::string& bench) EXCLUDES(bench_slots_mu_);

  /// The advisory backoff to attach to shed responses.
  int retry_after_ms() const { return options_.retry_after_ms; }

  /// Account a request shed outside the engine (e.g. a connection turned
  /// away at the listener's connection cap) so stats() aggregates all
  /// shedding in one counter.
  void record_shed() {
    shed_requests_.fetch_add(1, std::memory_order_relaxed);
  }

  /// P(same word) for two bits (DFF names) of a benchmark. Throws
  /// util::CheckError on unknown bench, bit, or model names. When `cancel`
  /// fires (deadline or explicit stop) throws runtime::CancelledError.
  /// `model` selects a registry entry ("" = size rule / default).
  double score(const std::string& bench, const std::string& bit_a,
               const std::string& bit_b,
               runtime::CancellationToken* cancel = nullptr,
               const std::string& model = "");

  /// Batched form: scores every (bitA, bitB) name pair against one bench.
  /// Cache hits are answered inline; misses are encoded and fanned out to
  /// the pool in `batch_size` groups. Result order matches input order.
  /// `cancel` is polled between micro-batches, never mid-forward.
  std::vector<double> score_batch(
      const std::string& bench,
      const std::vector<std::pair<std::string, std::string>>& bit_pairs,
      runtime::CancellationToken* cancel = nullptr,
      const std::string& model = "");

  /// Full word recovery over a benchmark, parallelized on the engine pool.
  /// A model-path failure — or an explicitly named model whose checkpoint
  /// never loaded — degrades to the structural baseline (summary tagged
  /// `degraded`); a fired `cancel` throws runtime::CancelledError.
  RecoverSummary recover(const std::string& bench,
                         runtime::CancellationToken* cancel = nullptr,
                         const std::string& model = "");

  /// False after a model forward failed (until one succeeds again) — what
  /// the `health` verb reports as `degraded`.
  bool model_healthy() const {
    return model_healthy_.load(std::memory_order_relaxed);
  }

  EngineStats stats() const;

  /// The model registry behind score/recover (health reporting, tests).
  ModelRegistry& registry() { return registry_; }

  /// Warm-start the default model's prediction cache from an RBPC snapshot
  /// (persist/snapshot.h): the file is validated and mapped as a zero-copy
  /// warm tier — O(1) in the record count, scores served off the mapping.
  /// Missing, truncated, corrupt or version-skewed files warm nothing and
  /// never throw — the engine starts cold with a warning. Returns the
  /// entries made available (also reported by stats() as warm_entries).
  std::size_t load_cache(const std::string& path);

  /// Atomically snapshot the default prediction cache to `path` as an RBPC
  /// snapshot (crash mid-save leaves any previous snapshot intact; a
  /// process still mapping the replaced file keeps its old inode).
  /// Throws util::CheckError with errno detail on I/O failure. Safe to call
  /// while requests are in flight — the cache is read under its shard locks.
  void save_cache(const std::string& path) const;

  /// Pre-load a bench context (useful before latency measurements so the
  /// first timed request does not pay tokenization). Returns its bit count.
  int warm(const std::string& bench);

  /// Bit (DFF) names of a bench in extract_bits order — what a load
  /// generator needs to fabricate valid score requests.
  std::vector<std::string> bit_names(const std::string& bench);

  int threads() const { return pool_.size() + 1; }  // pool + calling thread
  runtime::ThreadPool& pool() { return pool_; }
  const EngineOptions& options() const { return options_; }

 private:
  struct BenchContext {
    nl::Netlist netlist;  // retained for the structural fallback
    std::vector<nl::Bit> bits;
    std::vector<core::BitSequence> sequences;
    std::map<std::string, int> index_of;  // bit name -> sequence index
  };

  /// Resolve a bench name to its context, loading it on first use.
  /// The returned reference stays valid for the engine's lifetime (contexts
  /// are heap-allocated and never erased, so the pointee is safely read
  /// outside benches_mu_ once returned).
  const BenchContext& bench(const std::string& name) EXCLUDES(benches_mu_);

  int bit_index(const BenchContext& context, const std::string& bench,
                const std::string& bit) const;

  void release_bench_slot(const std::string& bench)
      EXCLUDES(bench_slots_mu_);

  EngineOptions options_;
  core::Tokenizer tokenizer_;
  // The request thread participates in every parallel_for it issues, so
  // the pool holds one fewer worker than the resolved scoring width.
  runtime::ThreadPool pool_;
  core::ShardedPredictionCache cache_;
  // After cache_: the registry's default entry aliases &cache_.
  ModelRegistry registry_;

  mutable util::Mutex benches_mu_{"engine.benches"};
  std::map<std::string, std::unique_ptr<BenchContext>> benches_
      GUARDED_BY(benches_mu_);

  mutable util::Mutex bench_slots_mu_{"engine.bench_slots"};
  std::map<std::string, int> bench_inflight_ GUARDED_BY(bench_slots_mu_);

  std::atomic<std::uint64_t> score_requests_{0};
  std::atomic<std::uint64_t> recover_requests_{0};
  std::atomic<std::size_t> warm_entries_{0};
  std::atomic<int> inflight_{0};
  std::atomic<bool> model_healthy_{true};
  std::atomic<std::uint64_t> shed_requests_{0};
  std::atomic<std::uint64_t> bench_shed_requests_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> degraded_recoveries_{0};
  util::WallTimer uptime_;
};

}  // namespace rebert::serve
