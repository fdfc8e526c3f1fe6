// Warm-start glue between the RBPC snapshot format and the sharded
// prediction cache. Header-only so persist stays a leaf library: only the
// including translation unit pays the dependencies (core for the cache,
// rebert_runtime for the cache.load / cache.parse chaos sites — every
// current includer links both already).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "persist/snapshot.h"
#include "rebert/prediction_cache.h"
#include "runtime/fault_injector.h"
#include "util/logging.h"

namespace rebert::persist {

/// Atomically snapshot `cache` (shard entries and any warm tier) to
/// `path`. Throws util::CheckError (with errno detail) on I/O failure.
inline void save_cache(const core::ShardedPredictionCache& cache,
                       const std::string& path) {
  save_snapshot(cache.export_entries(), path);
}

/// core::ScoreTier over a mapped RBPC snapshot — the adapter that plugs
/// the persistence layer's mapping into the cache's warm tier without
/// persist linking core.
class MmapSnapshotTier final : public core::ScoreTier {
 public:
  explicit MmapSnapshotTier(std::shared_ptr<const MmapSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}

  bool lookup(std::uint64_t key, double* score) const override {
    return snapshot_->lookup(key, score);
  }
  std::size_t size() const override { return snapshot_->count(); }
  void append_entries(
      std::vector<std::pair<std::uint64_t, double>>* out) const override {
    out->reserve(out->size() + snapshot_->count());
    for (std::size_t i = 0; i < snapshot_->count(); ++i)
      out->push_back(snapshot_->record(i));
  }

 private:
  std::shared_ptr<const MmapSnapshot> snapshot_;
};

/// Zero-copy warm start: the snapshot is mapped, validated (header,
/// checksum, key order) and attached as a read-only warm tier — O(1) in
/// the record count beyond the validation scan, no materialization.
/// Returns the entries made available. A missing file warms nothing with
/// an info log (a normal first run); a corrupt, truncated or
/// version-skewed one warms nothing with a warning. The caller always
/// continues, at worst cold: never throws on file content.
inline std::size_t warm_start_cache(core::ShardedPredictionCache* cache,
                                    const std::string& path) {
  // Chaos sites: cache.load simulates the snapshot file being unreadable
  // (I/O error, permission flip), cache.parse a record-level corruption
  // the checksum missed. Each fires at most once per call, and both
  // degrade to the cold start below.
  runtime::FaultInjector& faults = runtime::FaultInjector::global();
  if (faults.should_fail("cache.load")) {
    LOG_WARN << "cache snapshot: injected load fault for " << path
             << "; starting cold";
    return 0;
  }
  const MmapSnapshot::OpenResult mapped = MmapSnapshot::open(path);
  switch (mapped.status) {
    case SnapshotLoadStatus::kLoaded:
      break;
    case SnapshotLoadStatus::kMissing:
      LOG_INFO << "cache snapshot: " << mapped.message << "; starting cold";
      return 0;
    case SnapshotLoadStatus::kCorrupt:
      LOG_WARN << "cache snapshot rejected: " << mapped.message
               << "; starting cold";
      return 0;
  }
  if (faults.should_fail("cache.parse")) {
    LOG_WARN << "cache snapshot rejected: injected parse fault for " << path
             << "; starting cold";
    return 0;
  }
  cache->attach_warm_tier(std::make_shared<MmapSnapshotTier>(mapped.snapshot));
  LOG_INFO << "cache snapshot: mapped " << mapped.snapshot->count()
           << " record(s) from " << path << " as a zero-copy warm tier";
  return mapped.snapshot->count();
}

}  // namespace rebert::persist
