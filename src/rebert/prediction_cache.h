// Prediction cache — the "acceleration opportunity" the paper's
// conclusion defers to future work.
//
// After leaf generalization (§II-A-2) many bits of a word share *exactly*
// the same token sequence (template copies differ only in signal names),
// so the model is repeatedly asked to score identical inputs. Scores are
// deterministic at inference, so memoizing on the (sequence, sequence,
// tree-code) pair is lossless: the cached pipeline returns bit-identical
// score matrices while skipping most forward passes. The speedup bench
// (ablation_cache) measures the effect; on template-rich circuits the hit
// rate is high.
//
// ShardedPredictionCache is the cache every pipeline, the serving engine
// and the warm start use: the key space is split across mutex-striped
// shards, so parallel scorers rarely contend on the same lock, and a
// mapped RBPC snapshot can sit beneath the shards as a read-only warm
// tier. insert() of the same key from two threads is benign: inference is
// deterministic, so both write the same score.
//
// PredictionCache is the minimal serial map — key_of (the key scheme both
// share), lookup, insert and counters — that the benchmark's traced
// per-pair run (benchmark/recover.cc) counts its lookups with. Its map is
// NOT thread-safe.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rebert/tokenizer.h"
#include "util/mutex.h"

namespace rebert::core {

namespace detail {

/// Saturating hit/miss counters shared by both caches. Increments
/// are relaxed atomics (counters only feed statistics, never control
/// flow); totals saturate instead of wrapping so hit_rate() stays
/// meaningful even on absurdly long-lived servers.
class CacheStats {
 public:
  void record_hit() { bump(hits_, 1); }
  void record_miss() { bump(misses_, 1); }
  /// `count` hits at once: lookups a caller knows would hit (the bit
  /// pairs of a sequence-class pair after its first).
  void record_hits(std::uint64_t count) { bump(hits_, count); }

  std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// hits / (hits + misses); 0 before any lookup. The sum is computed in
  /// a wider domain so hits + misses cannot overflow the division.
  double hit_rate() const {
    const double h = static_cast<double>(hits());
    const double m = static_cast<double>(misses());
    const double total = h + m;
    return total > 0.0 ? h / total : 0.0;
  }

 private:
  static void bump(std::atomic<std::uint64_t>& counter, std::uint64_t count) {
    const std::uint64_t current = counter.load(std::memory_order_relaxed);
    // Saturate near max instead of wrapping to 0 (which would report a
    // nonsense hit rate); the headroom above kSaturated absorbs racing
    // increments.
    if (current >= kSaturated) return;
    counter.fetch_add(std::min(count, kSaturated - current),
                      std::memory_order_relaxed);
  }

  static constexpr std::uint64_t kSaturated = ~0ULL - 1024;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace detail

/// A read-only score source layered beneath ShardedPredictionCache's
/// mutable shards — the hook the zero-copy warm start plugs into: a
/// mapped RBPC snapshot (persist/snapshot.h) implements this and
/// serves historical scores straight off its mapping, so a restarted
/// engine is warm without materializing a single record. Implementations
/// must be safe for concurrent lookup() calls and immutable for the
/// attachment's lifetime.
class ScoreTier {
 public:
  virtual ~ScoreTier() = default;

  virtual bool lookup(std::uint64_t key, double* score) const = 0;
  virtual std::size_t size() const = 0;

  /// Append every record (sorted by key) to *out — what export/merge
  /// paths use so snapshots taken from a warm cache keep the tier's
  /// entries.
  virtual void append_entries(
      std::vector<std::pair<std::uint64_t, double>>* out) const = 0;
};

class PredictionCache {
 public:
  /// Order-sensitive key over both sequences' tokens and tree codes
  /// (encode_pair(a, b) and encode_pair(b, a) are different model inputs).
  static std::uint64_t key_of(const BitSequence& a, const BitSequence& b);

  /// Returns true and writes the score on a hit.
  bool lookup(std::uint64_t key, double* score) const;

  void insert(std::uint64_t key, double score);

  std::size_t size() const { return entries_.size(); }
  std::uint64_t hits() const { return stats_.hits(); }
  std::uint64_t misses() const { return stats_.misses(); }

 private:
  mutable detail::CacheStats stats_;
  std::unordered_map<std::uint64_t, double> entries_;
};

/// Thread-safe cache for the concurrent runtime: fixed shard count, one
/// mutex per shard, atomic statistics. All methods are safe to call from
/// any number of threads concurrently.
class ShardedPredictionCache {
 public:
  /// `shards` is rounded up to a power of two; 0 picks the default (64 —
  /// enough striping that 8-16 scoring threads rarely collide).
  explicit ShardedPredictionCache(int shards = 0);

  bool lookup(std::uint64_t key, double* score) const;
  void insert(std::uint64_t key, double score);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::size_t size() const;  // sum over shards; O(shards)
  std::uint64_t hits() const { return stats_.hits(); }
  std::uint64_t misses() const { return stats_.misses(); }
  double hit_rate() const { return stats_.hit_rate(); }
  /// Counts `count` hits without a lookup (see detail::CacheStats).
  void record_hits(std::uint64_t count) const { stats_.record_hits(count); }

  /// All entries across shards and the warm tier, sorted by key — what
  /// persist::save_cache snapshots. Shard-agnostic: records carry no shard
  /// structure, so a snapshot taken at one shard count warms any other.
  std::vector<std::pair<std::uint64_t, double>> export_entries() const;

  /// Attach a read-only warm tier consulted after a shard miss (a tier
  /// hit counts as a cache hit, so warmed keys are never re-scored or
  /// re-inserted). Replaces any previous tier; earlier tiers stay alive
  /// until the cache dies, so a concurrent lookup never races a teardown.
  /// size() and export_entries() include the tier's records.
  void attach_warm_tier(std::shared_ptr<const ScoreTier> tier)
      EXCLUDES(tier_mu_);

  /// The currently attached tier (nullptr when none) — for tests and
  /// stats plumbing.
  const ScoreTier* warm_tier() const {
    return warm_tier_.load(std::memory_order_acquire);
  }


 private:
  struct Shard {
    // All shards share one graph node ("cache.shard"): the code never
    // holds two shards at once, and the debug registry aborts if that
    // discipline regresses (two same-name instances held together).
    mutable util::Mutex mu{"cache.shard"};
    std::unordered_map<std::uint64_t, double> entries GUARDED_BY(mu);
  };

  Shard& shard_for(std::uint64_t key) const;

  mutable detail::CacheStats stats_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t shard_mask_ = 0;

  // The raw pointer is the lock-free read path (acquire pairs with the
  // release in attach_warm_tier); the owners vector keeps every tier ever
  // attached alive, so a reader that loaded a pointer can never see its
  // pointee destroyed.
  std::atomic<const ScoreTier*> warm_tier_{nullptr};
  mutable util::Mutex tier_mu_{"cache.tier"};
  std::vector<std::shared_ptr<const ScoreTier>> tier_owners_
      GUARDED_BY(tier_mu_);
};

/// Hash helper (FNV-1a over ints), exposed for tests.
std::uint64_t hash_sequence(std::uint64_t seed, const BitSequence& seq);

}  // namespace rebert::core
