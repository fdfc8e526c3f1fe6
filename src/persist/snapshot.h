// RBPC — the on-disk prediction-cache snapshot format and its reader.
//
// Layout (native endianness, like the RBTW checkpoint format):
//
//   bytes 0..3   magic "RBPC"
//   u32          version (kSnapshotVersion)
//   u64          record count
//   u64          record stride in bytes  (this build writes and reads 16)
//   u64          fnv1a_words checksum over the record table
//   count ×      { u64 key, f64 score }  — sorted strictly ascending by key
//
// The checksum sits in the header, so a validator never reads past data
// it has not sized yet; the stride is explicit, so a reader rejects layout
// skew instead of misindexing; and the record table is the final,
// binary-searchable artifact. MmapSnapshot::open validates bounds, magic,
// version, stride, checksum and key order, and lookups then run directly
// off the mapping — no allocation or per-record parse, which is why a
// respawned backend warm-starts in O(1) work beyond one checksum pass.
//
// Records are flat (key, score) pairs with no shard structure, so a
// snapshot written by a 64-shard ShardedPredictionCache warm-starts a
// 4-shard one unchanged. Sorted records also make the file a pure
// function of the cache contents: two processes that learned the same
// entries write identical bytes.
//
// Opening NEVER throws on file content: a missing, truncated, corrupt,
// unsorted or version-skewed file comes back as a status + one-line
// diagnosis, and the caller warms nothing (cold start). A daemon
// restarting into a torn snapshot must serve, not crash. Saving goes
// through the atomic writer (atomic_file.h), so a crash mid-save leaves
// the previous snapshot intact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "persist/mmap_file.h"

namespace rebert::persist {

/// One cached prediction: (pair key, score). The key scheme belongs to
/// core::PredictionCache::key_of; this layer just persists the mapping.
using CacheRecord = std::pair<std::uint64_t, double>;

inline constexpr char kSnapshotMagic[4] = {'R', 'B', 'P', 'C'};
inline constexpr std::uint32_t kSnapshotVersion = 2;
inline constexpr std::size_t kSnapshotHeaderBytes = 32;
inline constexpr std::size_t kSnapshotStride = 16;

/// FNV-1a folded over 8-byte little-endian words instead of bytes. One
/// multiply per word instead of eight makes validating a mapped snapshot
/// ~8× cheaper — byte-wise FNV's serial multiply chain would otherwise
/// dominate an O(1) warm start. The record table is a whole number of
/// words by construction; `size` must be a multiple of 8.
std::uint64_t fnv1a_words(const void* data, std::size_t size);

enum class SnapshotLoadStatus {
  kLoaded,   // snapshot mapped and validated
  kMissing,  // no file at the path (a normal first run)
  kCorrupt,  // bad magic / version skew / truncation / checksum mismatch
};

/// Atomically write `records` to `path`, sorted by key; duplicate keys
/// collapse to their first record. Throws util::CheckError with errno
/// detail on I/O failure — saving is a caller action whose failure must be
/// loud, unlike loading.
void save_snapshot(std::vector<CacheRecord> records, const std::string& path);

/// A validated, mapped snapshot serving lookups off the mapping.
class MmapSnapshot {
 public:
  struct OpenResult {
    SnapshotLoadStatus status = SnapshotLoadStatus::kMissing;
    std::shared_ptr<const MmapSnapshot> snapshot;  // set when kLoaded
    std::string message;  // diagnostic for kMissing / kCorrupt

    bool loaded() const { return status == SnapshotLoadStatus::kLoaded; }
  };

  /// Map and validate `path`. Every offset is proven in bounds before
  /// use; never throws on file content.
  static OpenResult open(const std::string& path);

  std::size_t count() const { return count_; }

  /// Binary search over the mapped record table.
  bool lookup(std::uint64_t key, double* score) const;

  /// The i-th record (caller keeps i < count()); used by export paths.
  CacheRecord record(std::size_t index) const;

 private:
  MmapSnapshot() = default;

  MmapFile file_;
  const unsigned char* table_ = nullptr;
  std::size_t count_ = 0;
};

}  // namespace rebert::persist
