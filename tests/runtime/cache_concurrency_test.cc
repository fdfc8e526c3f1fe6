// Hammer tests for the sharded prediction cache: many threads mixing
// lookups and inserts must never lose, corrupt, or double-count an entry.
#include "rebert/prediction_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace rebert::core {
namespace {

double value_for(std::uint64_t key) {
  // Deterministic key -> score mapping, mirroring real use where a cache
  // key always maps to the one score deterministic inference produces.
  return static_cast<double>(key % 1000) / 1000.0;
}

TEST(ShardedPredictionCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ShardedPredictionCache(1).num_shards(), 1);
  EXPECT_EQ(ShardedPredictionCache(2).num_shards(), 2);
  EXPECT_EQ(ShardedPredictionCache(5).num_shards(), 8);
  EXPECT_EQ(ShardedPredictionCache(64).num_shards(), 64);
  EXPECT_EQ(ShardedPredictionCache().num_shards(), 64);  // default
}

TEST(ShardedPredictionCacheTest, BasicHitMissAndFreshCacheIsEmpty) {
  ShardedPredictionCache cache(8);
  double score = 0.0;
  EXPECT_FALSE(cache.lookup(42, &score));
  cache.insert(42, 0.25);
  ASSERT_TRUE(cache.lookup(42, &score));
  EXPECT_DOUBLE_EQ(score, 0.25);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  // A new cache shares nothing with the first: no entries, no counts.
  const ShardedPredictionCache fresh(8);
  EXPECT_EQ(fresh.size(), 0u);
  EXPECT_EQ(fresh.hits(), 0u);
  EXPECT_FALSE(fresh.lookup(42, &score));
}

TEST(ShardedPredictionCacheTest, KeysSpreadAcrossShards) {
  // Not a distribution-quality test — just that consecutive keys do not
  // all fall into one shard (would serialize the whole point away).
  ShardedPredictionCache cache(16);
  for (std::uint64_t key = 0; key < 64; ++key)
    cache.insert(key, value_for(key));
  EXPECT_EQ(cache.size(), 64u);
}

TEST(ShardedPredictionCacheTest, ConcurrentHammerKeepsEveryEntryExact) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 512;
  constexpr int kRounds = 40;
  ShardedPredictionCache cache(16);
  std::atomic<int> wrong{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &wrong, t] {
      // Each thread walks the key space from a different offset, inserting
      // and re-reading; overlapping inserts of a key always carry the same
      // value, as with real deterministic predictions.
      for (int round = 0; round < kRounds; ++round) {
        for (std::uint64_t k = 0; k < kKeys; ++k) {
          const std::uint64_t key =
              (k + static_cast<std::uint64_t>(t) * 13) % kKeys;
          double score = 0.0;
          if (cache.lookup(key, &score)) {
            if (score != value_for(key)) wrong.fetch_add(1);
          } else {
            cache.insert(key, value_for(key));
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cache.size(), kKeys);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    double score = 0.0;
    ASSERT_TRUE(cache.lookup(key, &score));
    EXPECT_DOUBLE_EQ(score, value_for(key));
  }
  // Every lookup was either a hit or a miss; nothing lost or double
  // counted beyond the benign racing-insert window.
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GE(cache.misses(), kKeys);
}

TEST(CacheStatsTest, HitRateSafeOnEmptyAndBusyCaches) {
  ShardedPredictionCache cache(4);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.0);
  cache.insert(1, 0.5);
  double score;
  cache.lookup(1, &score);
  cache.lookup(2, &score);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

}  // namespace
}  // namespace rebert::core
