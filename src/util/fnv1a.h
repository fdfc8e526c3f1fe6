// FNV-1a, 64-bit — the one byte-wise hash in the tree. It is the RBTW
// checkpoint checksum, the wire frame checksum, the seed derived from a
// waiter's or benchmark's name, and (under a finalizer) the hash-ring
// point function. It detects accidental damage, not crafted input: it is
// no MAC, so a decoder must bounds-check what it reads even when the
// checksum matches.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rebert::util {

inline constexpr std::uint64_t kFnv1aInit = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/// Fold `size` bytes into a running FNV-1a state. The default state makes
/// this a one-shot hash; streaming writers chain calls, since
/// fnv1a(b, nb, fnv1a(a, na)) == fnv1a of a followed by b.
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t state = kFnv1aInit) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    state *= kFnv1aPrime;
  }
  return state;
}

}  // namespace rebert::util
