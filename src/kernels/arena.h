// Per-thread scratch arena: bump allocation for hot-loop temporaries.
//
// The BERT forward pass used to allocate dozens of short-lived buffers
// per call — per-head Q/K/V slices, attention score matrices, GEMM
// packing panels, LayerNorm intermediates. Arena replaces all of that
// with a thread-local bump allocator: ArenaScope marks the high-water
// point on entry and rewinds it on exit, so a whole encoder forward costs
// zero heap traffic once the arena has grown to the working-set size.
//
// Thread safety: there is none, by construction — thread_arena() hands
// every thread its own instance and Arena itself is deliberately
// lock-free-because-single-threaded. It therefore sits entirely outside
// the PR 6 lock hierarchy (no util::Mutex, no acquisition edges, nothing
// for the lock-order registry to see) and may be used while holding any
// lock. tools/check_annotations.sh enforces that ad-hoc `thread_local`
// state does not appear elsewhere, so this file stays the one sanctioned
// per-thread scratch mechanism.
//
// Nesting: scopes nest like stack frames (attention's scope survives the
// gemm packing scope it calls into). Allocations made inside a scope are
// invalid after the scope is destroyed; holding an arena pointer across
// a scope boundary is the one way to misuse this API, and the debug
// build's poison fill (REBERT_ENABLE_DCHECKS) makes such bugs loud.
#pragma once

#include <cstddef>
#include <vector>

#include "util/page_mapping.h"

namespace rebert::kernels {

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// 64-byte-aligned uninitialized floats, valid until the enclosing
  /// scope rewinds. n == 0 returns a non-null dummy pointer.
  float* alloc_floats(std::size_t n) {
    return static_cast<float*>(alloc_bytes(n * sizeof(float)));
  }

  /// 64-byte-aligned uninitialized storage.
  void* alloc_bytes(std::size_t bytes);

  struct Mark {
    std::size_t block = 0;
    std::size_t used = 0;
  };
  Mark mark() const { return Mark{current_, blocks_.empty() ? 0 : blocks_[current_].used}; }
  void rewind(const Mark& mark);

  /// Bytes handed out since the last full rewind (diagnostics/tests).
  std::size_t bytes_in_use() const;
  /// Total bytes reserved across all blocks.
  std::size_t capacity() const;
  std::size_t block_count() const { return blocks_.size(); }

 private:
  /// Each block is an anonymous mapping of its own (util/page_mapping.h).
  /// A transient pool's workers each grow an arena of about 2 MB and free
  /// it when they exit; as heap blocks, those frees left holes whose
  /// reuse, and so the peak RSS, depended on thread timing. Pages are
  /// aligned far past kAlignment.
  struct Block {
    util::PageArray<char> base;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  Block& grow(std::size_t min_bytes);

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  // block new allocations try first
};

/// This thread's arena. First call on a thread creates it; it lives until
/// thread exit. Pool workers (runtime::ThreadPool) each get their own, so
/// concurrent forwards never share scratch.
Arena& thread_arena();

/// RAII watermark over thread_arena(): everything allocated through the
/// scope (or from thread_arena() while it is open) is reclaimed — not
/// freed, kept for reuse — when it destructs.
class ArenaScope {
 public:
  ArenaScope() : arena_(thread_arena()), mark_(arena_.mark()) {}
  ~ArenaScope() { arena_.rewind(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  float* floats(std::size_t n) { return arena_.alloc_floats(n); }

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

}  // namespace rebert::kernels
