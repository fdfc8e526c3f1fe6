// RBPC snapshot format: a mapped artifact is validated — bounds, magic,
// version, stride, checksum, key order — before a record is served, and
// every defect comes back kCorrupt with a diagnosis, never a throw or a
// wrong answer. Plus the warm-start contract: a valid file attaches as a
// zero-copy tier, anything else (a corrupt file, or a v1 file from an
// older build) starts cold.
#include "persist/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "persist/cache_io.h"
#include "rebert/prediction_cache.h"
#include "util/fnv1a.h"

namespace rebert::persist {
namespace {

std::vector<CacheRecord> sample_records() {
  return {{5, 0.5}, {1, 0.1}, {9, 0.9}, {3, 0.3}};  // save sorts
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void append_pod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

class SnapshotFileTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Per-test file name: the suite runs under `ctest -j`, where every test
  // is its own process and a shared name races (one test's TearDown
  // deletes the file another test just saved).
  const std::string path_ =
      ::testing::TempDir() + "/rebert_snapshot_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".rbpc";
};

class SnapshotTest : public SnapshotFileTest {};
class MmapSnapshotTest : public SnapshotFileTest {};
class CacheIoTest : public SnapshotFileTest {};

TEST_F(SnapshotTest, DeterministicBytes) {
  // Same entries (any order) -> identical files. Snapshots can be diffed
  // and content-addressed.
  const std::string other = path_ + ".reversed";
  std::vector<CacheRecord> reversed = sample_records();
  std::reverse(reversed.begin(), reversed.end());
  save_snapshot(sample_records(), path_);
  save_snapshot(reversed, other);
  EXPECT_EQ(slurp(path_), slurp(other));
  std::remove(other.c_str());
}

TEST_F(SnapshotTest, TruncatedFileRejected) {
  save_snapshot(sample_records(), path_);
  const std::string bytes = slurp(path_);
  // Clip at every prefix length: any truncation point must reject cleanly.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{9}, std::size_t{3}}) {
    spit(path_, bytes.substr(0, keep));
    const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
    EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt)
        << "kept " << keep << " bytes";
    EXPECT_EQ(opened.snapshot, nullptr);
  }
}

TEST_F(SnapshotTest, VersionSkewRejectedGracefully) {
  save_snapshot(sample_records(), path_);
  std::string bytes = slurp(path_);
  bytes[4] = static_cast<char>(kSnapshotVersion + 7);  // u32 version field
  spit(path_, bytes);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("version " +
                                std::to_string(kSnapshotVersion + 7)),
            std::string::npos)
      << opened.message;
}

TEST_F(MmapSnapshotTest, RoundTripSortsAndServesLookups) {
  save_snapshot(sample_records(), path_);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  ASSERT_TRUE(opened.loaded()) << opened.message;
  ASSERT_EQ(opened.snapshot->count(), 4u);
  // record() walks the table in sorted key order.
  EXPECT_EQ(opened.snapshot->record(0).first, 1u);
  EXPECT_EQ(opened.snapshot->record(3).first, 9u);

  double score = 0.0;
  EXPECT_TRUE(opened.snapshot->lookup(3, &score));
  EXPECT_DOUBLE_EQ(score, 0.3);
  EXPECT_TRUE(opened.snapshot->lookup(9, &score));
  EXPECT_DOUBLE_EQ(score, 0.9);
  EXPECT_FALSE(opened.snapshot->lookup(4, &score));
  EXPECT_FALSE(opened.snapshot->lookup(0, &score));
  EXPECT_FALSE(opened.snapshot->lookup(10, &score));
}

TEST_F(MmapSnapshotTest, DuplicateKeysCollapseToOneRecord) {
  save_snapshot({{7, 0.7}, {7, 0.8}, {2, 0.2}}, path_);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  ASSERT_TRUE(opened.loaded()) << opened.message;
  EXPECT_EQ(opened.snapshot->count(), 2u);  // strict order preserved
}

TEST_F(MmapSnapshotTest, EmptySnapshotIsValid) {
  save_snapshot({}, path_);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  ASSERT_TRUE(opened.loaded()) << opened.message;
  EXPECT_EQ(opened.snapshot->count(), 0u);
  double score = 0.0;
  EXPECT_FALSE(opened.snapshot->lookup(1, &score));
}

TEST_F(MmapSnapshotTest, MissingFileIsMissingNotCorrupt) {
  const MmapSnapshot::OpenResult opened =
      MmapSnapshot::open(::testing::TempDir() + "/rebert_no_such.rbpc");
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kMissing);
}

TEST_F(MmapSnapshotTest, TruncatedFileRejected) {
  save_snapshot(sample_records(), path_);
  const std::string bytes = slurp(path_);
  // Clip mid-table, and separately mid-header.
  spit(path_, bytes.substr(0, bytes.size() - 7));
  EXPECT_EQ(MmapSnapshot::open(path_).status, SnapshotLoadStatus::kCorrupt);
  spit(path_, bytes.substr(0, kSnapshotHeaderBytes / 2));
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("too small"), std::string::npos)
      << opened.message;
}

TEST_F(MmapSnapshotTest, TrailingGarbageRejected) {
  save_snapshot(sample_records(), path_);
  spit(path_, slurp(path_) + "junk");
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("trailing garbage"), std::string::npos)
      << opened.message;
}

TEST_F(MmapSnapshotTest, BadMagicRejected) {
  save_snapshot(sample_records(), path_);
  std::string bytes = slurp(path_);
  bytes[0] = 'X';
  spit(path_, bytes);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("magic"), std::string::npos)
      << opened.message;
}

TEST_F(MmapSnapshotTest, BadStrideRejected) {
  save_snapshot(sample_records(), path_);
  std::string bytes = slurp(path_);
  const std::uint64_t skewed = 24;  // u64 stride at bytes 16..23
  std::memcpy(&bytes[16], &skewed, sizeof(skewed));
  spit(path_, bytes);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("stride"), std::string::npos)
      << opened.message;
}

TEST_F(MmapSnapshotTest, ChecksumFlipRejected) {
  save_snapshot(sample_records(), path_);
  std::string bytes = slurp(path_);
  bytes[kSnapshotHeaderBytes + 3] ^= 0x10;  // one bit in the table
  spit(path_, bytes);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("checksum"), std::string::npos)
      << opened.message;
}

TEST_F(MmapSnapshotTest, HostileCountRejectedByArithmetic) {
  // A count that multiplies past the file size (or past u64) must be
  // refused from the header alone, never allocate or scan.
  save_snapshot(sample_records(), path_);
  std::string bytes = slurp(path_);
  const std::uint64_t huge = ~0ULL / 2;  // u64 count at bytes 8..15
  std::memcpy(&bytes[8], &huge, sizeof(huge));
  spit(path_, bytes);
  EXPECT_EQ(MmapSnapshot::open(path_).status, SnapshotLoadStatus::kCorrupt);
}

TEST_F(MmapSnapshotTest, OutOfOrderKeysRejected) {
  // Hand-build a checksummed file whose keys are unsorted: the checksum
  // passes, so only the order validator can catch it.
  save_snapshot({{1, 0.1}, {2, 0.2}}, path_);
  std::string bytes = slurp(path_);
  std::string table = bytes.substr(kSnapshotHeaderBytes);
  std::swap_ranges(table.begin(), table.begin() + kSnapshotStride,
                   table.begin() + kSnapshotStride);
  const std::uint64_t checksum = fnv1a_words(table.data(), table.size());
  std::memcpy(&bytes[24], &checksum, sizeof(checksum));
  bytes.replace(kSnapshotHeaderBytes, table.size(), table);
  spit(path_, bytes);
  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("out of order"), std::string::npos)
      << opened.message;
}

TEST_F(MmapSnapshotTest, WarmStartAttachesV2AsZeroCopyTier) {
  save_snapshot(sample_records(), path_);
  core::ShardedPredictionCache cache;
  EXPECT_EQ(warm_start_cache(&cache, path_), 4u);
  ASSERT_NE(cache.warm_tier(), nullptr);  // mapped, not materialized
  EXPECT_EQ(cache.warm_tier()->size(), 4u);
  double score = 0.0;
  EXPECT_TRUE(cache.lookup(5, &score));
  EXPECT_DOUBLE_EQ(score, 0.5);
  // A snapshot exported from the warm cache keeps the tier's records.
  EXPECT_EQ(cache.export_entries().size(), 4u);
}

TEST_F(MmapSnapshotTest, WarmStartStartsColdOnCorruptFile) {
  save_snapshot(sample_records(), path_);
  std::string bytes = slurp(path_);
  bytes[kSnapshotHeaderBytes] ^= 0xFF;
  spit(path_, bytes);
  core::ShardedPredictionCache cache;
  EXPECT_EQ(warm_start_cache(&cache, path_), 0u);  // no throw, just cold
  EXPECT_EQ(cache.warm_tier(), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CacheIoTest, ShardAgnosticAcrossShardCountsAndFlavours) {
  core::ShardedPredictionCache wide(64);
  for (std::uint64_t k = 0; k < 100; ++k)
    wide.insert(k * 0x9e3779b97f4a7c15ULL, static_cast<double>(k) / 100.0);
  save_cache(wide, path_);

  core::ShardedPredictionCache narrow(4);
  EXPECT_EQ(warm_start_cache(&narrow, path_), 100u);
  for (std::uint64_t k = 0; k < 100; ++k) {
    double score = -1.0;
    ASSERT_TRUE(narrow.lookup(k * 0x9e3779b97f4a7c15ULL, &score));
    EXPECT_EQ(score, static_cast<double>(k) / 100.0);
  }
}

TEST_F(CacheIoTest, CorruptFileWarmsNothingAndDoesNotThrow) {
  spit(path_, "definitely not an RBPC snapshot");
  core::ShardedPredictionCache cache;
  EXPECT_EQ(warm_start_cache(&cache, path_), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CacheIoTest, V1SnapshotStartsColdNamingTheVersion) {
  // A well-formed v1 file as older builds wrote it: magic, u32 version 1,
  // u64 count, the records, then a byte-wise FNV-1a over count + records.
  std::string body;
  append_pod(&body, std::uint64_t{2});
  for (const CacheRecord& record : {CacheRecord{1, 0.1}, {2, 0.2}}) {
    append_pod(&body, record.first);
    append_pod(&body, record.second);
  }
  std::string file(kSnapshotMagic, sizeof(kSnapshotMagic));
  append_pod(&file, std::uint32_t{1});
  file += body;
  append_pod(&file, util::fnv1a(body.data(), body.size()));
  spit(path_, file);

  const MmapSnapshot::OpenResult opened = MmapSnapshot::open(path_);
  EXPECT_EQ(opened.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_NE(opened.message.find("version 1"), std::string::npos)
      << opened.message;

  core::ShardedPredictionCache cache;
  ::testing::internal::CaptureStderr();
  std::size_t warmed = 1;
  EXPECT_NO_THROW(warmed = warm_start_cache(&cache, path_));
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(warmed, 0u);
  EXPECT_EQ(cache.warm_tier(), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_NE(log.find("version 1"), std::string::npos) << log;
}

}  // namespace
}  // namespace rebert::persist
