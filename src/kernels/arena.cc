#include "kernels/arena.h"

#include <algorithm>
#include <limits>

#include "kernels/aligned.h"
#include "util/check.h"

namespace rebert::kernels {

namespace {

/// First block size: covers a whole encoder-layer forward at the default
/// eval config without growing.
constexpr std::size_t kMinBlockBytes = 1u << 16;  // 64 KiB

std::size_t round_up(std::size_t bytes) {
  return (bytes + kAlignment - 1) & ~(kAlignment - 1);
}

#if defined(REBERT_ENABLE_DCHECKS)
/// Debug poison: a use-after-rewind reads NaNs and trips the graphcheck
/// tripwire instead of silently reusing stale values.
void poison(char* base, std::size_t from, std::size_t to) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  float* f = reinterpret_cast<float*>(base);
  for (std::size_t i = from / sizeof(float); i < to / sizeof(float); ++i)
    f[i] = nan;
}
#endif

}  // namespace

void* Arena::alloc_bytes(std::size_t bytes) {
  bytes = round_up(std::max<std::size_t>(bytes, 1));
  // Try the current block, then any later (already-reserved) block a
  // previous high-water mark left behind.
  while (current_ < blocks_.size()) {
    Block& block = blocks_[current_];
    if (block.capacity - block.used >= bytes) {
      char* p = block.base.get() + block.used;
      block.used += bytes;
      return p;
    }
    if (current_ + 1 >= blocks_.size()) break;
    ++current_;
  }
  Block& block = grow(bytes);
  char* p = block.base.get() + block.used;
  block.used += bytes;
  return p;
}

Arena::Block& Arena::grow(std::size_t min_bytes) {
  // Geometric growth, and at least the sum of everything already
  // reserved: after a full rewind the next generation consolidates the
  // whole working set into one block.
  std::size_t want = std::max(min_bytes, kMinBlockBytes);
  want = std::max(want, capacity());
  want = round_up(want);
  Block block;
  block.base = util::map_pages<char>(want);
  block.capacity = want;
  blocks_.push_back(std::move(block));
  current_ = blocks_.size() - 1;
  return blocks_.back();
}

void Arena::rewind(const Mark& mark) {
  if (blocks_.empty()) return;
  REBERT_DCHECK_MSG(mark.block < blocks_.size(),
                    "arena rewind past the end of the block list");
  for (std::size_t b = blocks_.size(); b-- > mark.block + 1;) {
#if defined(REBERT_ENABLE_DCHECKS)
    poison(blocks_[b].base.get(), 0, blocks_[b].used);
#endif
    blocks_[b].used = 0;
  }
#if defined(REBERT_ENABLE_DCHECKS)
  poison(blocks_[mark.block].base.get(), mark.used, blocks_[mark.block].used);
#endif
  blocks_[mark.block].used = mark.used;
  current_ = mark.block;
  // Full rewind with a fragmented block list: drop every block so the
  // next grow() reserves one consolidated block (capacity() feeds the
  // sizing above via the high-water sum we are about to release —
  // compute it first).
  if (mark.block == 0 && mark.used == 0 && blocks_.size() > 1) {
    const std::size_t total = capacity();
    blocks_.clear();
    current_ = 0;
    Block& block = grow(total);
    block.used = 0;
  }
}

std::size_t Arena::bytes_in_use() const {
  std::size_t used = 0;
  for (const Block& block : blocks_) used += block.used;
  return used;
}

std::size_t Arena::capacity() const {
  std::size_t total = 0;
  for (const Block& block : blocks_) total += block.capacity;
  return total;
}

Arena& thread_arena() {
  static thread_local Arena arena;
  return arena;
}

}  // namespace rebert::kernels
