#include "persist/snapshot.h"

#include <algorithm>
#include <cstring>

#include "persist/atomic_file.h"
#include "util/check.h"
#include "util/fnv1a.h"

namespace rebert::persist {

namespace {

struct __attribute__((__packed__)) Header {
  char magic[4];
  std::uint32_t version;
  std::uint64_t count;
  std::uint64_t stride;
  std::uint64_t checksum;
};
static_assert(sizeof(Header) == kSnapshotHeaderBytes,
              "RBPC header layout drifted from the format");

struct __attribute__((__packed__)) Record {
  std::uint64_t key;
  double score;
};
static_assert(sizeof(Record) == kSnapshotStride,
              "RBPC record layout drifted from the format");

MmapSnapshot::OpenResult reject(std::string message) {
  MmapSnapshot::OpenResult result;
  result.status = SnapshotLoadStatus::kCorrupt;
  result.message = std::move(message);
  return result;
}

}  // namespace

std::uint64_t fnv1a_words(const void* data, std::size_t size) {
  REBERT_CHECK_MSG(size % sizeof(std::uint64_t) == 0,
                   "fnv1a_words needs a whole number of 8-byte words, got "
                       << size << " bytes");
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t state = util::kFnv1aInit;
  for (std::size_t i = 0; i < size; i += sizeof(std::uint64_t)) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, sizeof(word));
    state ^= word;
    state *= util::kFnv1aPrime;
  }
  return state;
}

void save_snapshot(std::vector<CacheRecord> records, const std::string& path) {
  // Sorted records are both the determinism guarantee (identical caches ->
  // identical bytes) and the lookup index: the mapped table is
  // binary-searched in place. Duplicate keys collapse to their first
  // record — strict key order is the validator's search invariant.
  std::sort(records.begin(), records.end());
  records.erase(std::unique(records.begin(), records.end(),
                            [](const CacheRecord& a, const CacheRecord& b) {
                              return a.first == b.first;
                            }),
                records.end());

  std::string table;
  table.reserve(records.size() * kSnapshotStride);
  for (const CacheRecord& record : records) {
    Record packed{record.first, record.second};
    table.append(reinterpret_cast<const char*>(&packed), sizeof(packed));
  }

  Header header{};
  std::memcpy(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  header.version = kSnapshotVersion;
  header.count = records.size();
  header.stride = kSnapshotStride;
  header.checksum = fnv1a_words(table.data(), table.size());

  AtomicFileWriter writer(path);
  std::ostream& out = writer.stream();
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(table.data(), static_cast<std::streamsize>(table.size()));
  writer.commit();
}

MmapSnapshot::OpenResult MmapSnapshot::open(const std::string& path) {
  auto snapshot = std::shared_ptr<MmapSnapshot>(new MmapSnapshot());
  std::string io_error;
  if (!snapshot->file_.open(path, &io_error)) {
    OpenResult result;
    result.status = SnapshotLoadStatus::kMissing;
    result.message = io_error;
    return result;
  }

  const auto too_small = [&] {
    return reject(path + " is too small (" +
                  std::to_string(snapshot->file_.size()) +
                  " bytes) to be a cache snapshot");
  };
  // Magic and version come first, so a snapshot from another format
  // generation is named as such even when it is shorter than this
  // version's header.
  char magic[sizeof(kSnapshotMagic)] = {};
  std::uint32_t version = 0;
  if (!snapshot->file_.read(0, &magic) ||
      !snapshot->file_.read(sizeof(magic), &version))
    return too_small();
  if (std::memcmp(magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0)
    return reject(path + " is not a cache snapshot (bad magic)");
  if (version != kSnapshotVersion)
    return reject(path + ": unsupported snapshot version " +
                  std::to_string(version) + " (this build reads version " +
                  std::to_string(kSnapshotVersion) + ")");

  Header header{};
  if (!snapshot->file_.read(0, &header)) return too_small();
  if (header.stride != kSnapshotStride)
    return reject(path + ": record stride " + std::to_string(header.stride) +
                  " does not match this build's " +
                  std::to_string(kSnapshotStride) +
                  "-byte records (layout skew)");
  // The size arithmetic proves the whole table is inside the mapping
  // before any record is touched; the multiply is overflow-checked by
  // dividing the space that is actually there.
  const std::size_t available = snapshot->file_.size() - kSnapshotHeaderBytes;
  if (header.count > available / kSnapshotStride ||
      header.count * kSnapshotStride != available)
    return reject(path + ": expected " + std::to_string(header.count) +
                  " record(s) of " + std::to_string(kSnapshotStride) +
                  " bytes after the header, file has " +
                  std::to_string(available) +
                  " bytes (truncated or trailing garbage)");

  const unsigned char* table = snapshot->file_.bytes(
      kSnapshotHeaderBytes, header.count * kSnapshotStride);
  if (table == nullptr)  // unreachable after the arithmetic above
    return reject(path + ": record table out of bounds");
  if (fnv1a_words(table, header.count * kSnapshotStride) != header.checksum)
    return reject(path + ": checksum mismatch (file is corrupt)");

  // Key order is the binary-search invariant; a file that lies about it
  // would serve wrong answers, so it is corrupt, not merely slow.
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < header.count; ++i) {
    std::uint64_t key = 0;
    std::memcpy(&key, table + i * kSnapshotStride, sizeof(key));
    if (i > 0 && key <= previous)
      return reject(path + ": record keys out of order at index " +
                    std::to_string(i));
    previous = key;
  }

  snapshot->table_ = table;
  snapshot->count_ = static_cast<std::size_t>(header.count);
  OpenResult result;
  result.status = SnapshotLoadStatus::kLoaded;
  result.snapshot = std::move(snapshot);
  return result;
}

bool MmapSnapshot::lookup(std::uint64_t key, double* score) const {
  std::size_t lo = 0;
  std::size_t hi = count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    std::uint64_t mid_key = 0;
    std::memcpy(&mid_key, table_ + mid * kSnapshotStride, sizeof(mid_key));
    if (mid_key == key) {
      if (score != nullptr)
        std::memcpy(score, table_ + mid * kSnapshotStride + sizeof(key),
                    sizeof(*score));
      return true;
    }
    if (mid_key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

CacheRecord MmapSnapshot::record(std::size_t index) const {
  Record packed{};
  std::memcpy(&packed, table_ + index * kSnapshotStride, sizeof(packed));
  // Copies, not references: a packed field has no addressable alignment.
  const std::uint64_t key = packed.key;
  const double score = packed.score;
  return {key, score};
}

}  // namespace rebert::persist
