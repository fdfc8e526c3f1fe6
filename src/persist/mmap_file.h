// MmapFile — a read-only memory mapping with bounds-checked access.
//
// The zero-copy half of the persistence layer: artifacts whose layout
// supports it (RBPC snapshots, RBTW checkpoints) are validated in
// place and then served directly off the mapping, so a warm start costs
// one mmap() plus a checksum scan instead of a stream parse that
// materializes every record. The mapping is MAP_SHARED + PROT_READ:
// several backend processes mapping the same snapshot share one copy of
// the page cache, and an atomic-rename replacement (atomic_file.h) never
// mutates mapped bytes — the old inode stays alive until unmapped.
//
// Nothing here trusts the file: every access goes through bytes()/read(),
// which bounds-check against the mapped size, and read() memcpy()s so a
// packed or misaligned on-disk layout can never fault an aligned load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

namespace rebert::persist {

class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Map `path` read-only. Returns false with *error set when the file
  /// cannot be opened, stat'ed, or mapped; an empty file "maps"
  /// successfully with size() == 0 (mmap of zero bytes is not a thing, so
  /// no mapping is created). Idempotent only via close() first.
  bool open(const std::string& path, std::string* error);

  void close();

  bool mapped() const { return open_; }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// The window [offset, offset + len), or nullptr when it overruns the
  /// mapping — the one bounds check every consumer funnels through.
  const unsigned char* bytes(std::size_t offset, std::size_t len) const {
    if (offset > size_ || len > size_ - offset) return nullptr;
    return data_ + offset;
  }

  /// Bounds-checked typed read at `offset` via memcpy (alignment-safe for
  /// packed layouts). Returns false when the window overruns.
  template <typename T>
  bool read(std::size_t offset, T* out) const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "read() is for POD wire/artifact structs");
    const unsigned char* window = bytes(offset, sizeof(T));
    if (window == nullptr) return false;
    std::memcpy(out, window, sizeof(T));
    return true;
  }

 private:
  std::string path_;
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  bool open_ = false;  // distinguishes "empty file mapped" from "closed"
};

}  // namespace rebert::persist
