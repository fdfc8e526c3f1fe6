// Anonymous page mappings: storage for large, short-lived buffers that
// keeps them out of the malloc heap.
//
// glibc serves a block between 128 KiB and 32 MiB from its heap once a
// freed mapping has raised its dynamic mmap threshold. A freed heap block
// with a small, still-live block above it cannot go back to the heap's
// top, so the next block of that size grows the heap instead of reusing
// it. Which small blocks land where depends on thread timing: a process
// that frees and re-allocates multi-megabyte buffers over and over reached
// a peak RSS that moved by a buffer's size from one run to the next. A
// buffer in a mapping of its own goes back to the kernel whole when it
// dies and never moves the threshold.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

namespace rebert::util {

/// Unmaps a buffer made by map_pages.
struct PageUnmap {
  std::size_t bytes;
  void operator()(void* pages) const { ::munmap(pages, bytes); }
};

/// `count` T in an anonymous mapping of their own.
template <typename T>
using PageArray = std::unique_ptr<T[], PageUnmap>;

/// Maps `count` > 0 zero-filled, page-aligned T; throws std::bad_alloc
/// when the kernel refuses.
template <typename T>
PageArray<T> map_pages(std::size_t count) {
  static_assert(std::is_trivially_default_constructible_v<T>,
                "mapped pages hold zero bytes, not constructed objects");
  const std::size_t bytes = count * sizeof(T);
  void* pages = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  return PageArray<T>(static_cast<T*>(pages), PageUnmap{bytes});
}

}  // namespace rebert::util
