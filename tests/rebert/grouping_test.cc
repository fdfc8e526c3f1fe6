#include "rebert/grouping.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "util/check.h"
#include "util/timer.h"

namespace rebert::core {
namespace {

/// group_words' definition at bit level: every pair i < j scoring above
/// max_score * factor is an edge, and the components are the words.
std::vector<int> bit_level_labels(const ScoreMatrix& scores,
                                  double factor = 1.0 / 3.0) {
  const int n = scores.size();
  double max_score = ScoreMatrix::kFiltered;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      max_score = std::max(max_score, scores.at(i, j));
  UnionFind uf(n);
  if (max_score > 0.0)
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (scores.at(i, j) > max_score * factor) uf.unite(i, j);
  return uf.labels();
}

/// A class matrix over n <= 40 bits in u <= 12 classes. Each occurring
/// ordered class pair gets a score in [0, 1) or, one time in four, stays
/// kFiltered.
ScoreMatrix random_class_matrix(std::mt19937_64& rng) {
  const int n = std::uniform_int_distribution<int>(1, 40)(rng);
  const int u = std::uniform_int_distribution<int>(1, 12)(rng);
  std::vector<int> class_of(static_cast<std::size_t>(n));
  for (int& c : class_of) c = std::uniform_int_distribution<int>(0, u - 1)(rng);
  ScoreMatrix scores(class_of, u);
  std::vector<char> decided(static_cast<std::size_t>(u * u), 0);
  std::uniform_real_distribution<double> score(0.0, 1.0);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) {
      char& cell = decided[static_cast<std::size_t>(
          class_of[static_cast<std::size_t>(i)] * u +
          class_of[static_cast<std::size_t>(j)])];
      if (cell) continue;
      cell = 1;
      if (rng() % 4 != 0) scores.set(i, j, score(rng));
    }
  return scores;
}

TEST(UnionFindTest, BasicOperations) {
  UnionFind uf(5);
  EXPECT_FALSE(uf.connected(0, 1));
  uf.unite(0, 1);
  EXPECT_TRUE(uf.connected(0, 1));
  uf.unite(1, 2);
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(0, 3));
  const std::vector<int> labels = uf.labels();
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_NE(labels[3], labels[4]);
}

TEST(UnionFindTest, LabelsAreCompactAndFirstSeen) {
  UnionFind uf(4);
  uf.unite(2, 3);
  const std::vector<int> labels = uf.labels();
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[1], 1);
  EXPECT_EQ(labels[2], 2);
  EXPECT_EQ(labels[3], 2);
}

TEST(UnionFindTest, RangeChecked) {
  UnionFind uf(3);
  EXPECT_THROW(uf.find(3), util::CheckError);
  EXPECT_THROW(uf.find(-1), util::CheckError);
}

TEST(GroupingTest, ThresholdIsMaxOverThree) {
  // max = 0.9 -> threshold 0.3: edges for scores > 0.3.
  ScoreMatrix scores(4);
  scores.set(0, 1, 0.9);
  scores.set(2, 3, 0.31);
  scores.set(0, 2, 0.29);
  const std::vector<int> labels = group_words(scores);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
}

TEST(GroupingTest, FilteredPairsNeverConnect) {
  ScoreMatrix scores(3);
  scores.set(0, 1, 0.9);
  // (1,2) stays kFiltered = -1.
  const std::vector<int> labels = group_words(scores);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_NE(labels[1], labels[2]);
}

TEST(GroupingTest, AllFilteredYieldsSingletons) {
  ScoreMatrix scores(4);
  const std::vector<int> labels = group_words(scores);
  for (std::size_t i = 0; i < labels.size(); ++i)
    for (std::size_t j = i + 1; j < labels.size(); ++j)
      EXPECT_NE(labels[i], labels[j]);
}

TEST(GroupingTest, TransitiveChainsMerge) {
  // 0-1, 1-2 above threshold: all three in one word even though 0-2 is low.
  ScoreMatrix scores(3);
  scores.set(0, 1, 0.9);
  scores.set(1, 2, 0.9);
  scores.set(0, 2, 0.05);
  const std::vector<int> labels = group_words(scores);
  EXPECT_EQ(labels[0], labels[2]);
}

TEST(GroupingTest, DynamicThresholdAdaptsToLowScores) {
  // Even weak scores group if they dominate the matrix: max 0.2 ->
  // threshold ~0.066.
  ScoreMatrix scores(3);
  scores.set(0, 1, 0.2);
  scores.set(1, 2, 0.07);
  const std::vector<int> labels = group_words(scores);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
}

TEST(GroupingTest, CustomThresholdFactor) {
  // max = 0.9; the 0.5 edge appears only when the factor drops below 5/9.
  ScoreMatrix scores(3);
  scores.set(0, 1, 0.9);
  scores.set(1, 2, 0.5);
  GroupingOptions strict;
  strict.threshold_factor = 0.7;  // threshold 0.63 > 0.5
  const std::vector<int> strict_labels = group_words(scores, strict);
  EXPECT_EQ(strict_labels[0], strict_labels[1]);
  EXPECT_NE(strict_labels[1], strict_labels[2]);
  GroupingOptions loose;
  loose.threshold_factor = 0.3;  // threshold 0.27 < 0.5
  const std::vector<int> loose_labels = group_words(scores, loose);
  EXPECT_EQ(loose_labels[0], loose_labels[2]);
}

TEST(GroupingTest, RejectsBadFactor) {
  ScoreMatrix scores(2);
  GroupingOptions bad;
  bad.threshold_factor = 0.0;
  EXPECT_THROW(group_words(scores, bad), util::CheckError);
  bad.threshold_factor = 1.5;
  EXPECT_THROW(group_words(scores, bad), util::CheckError);
}

TEST(GroupingTest, ClassRuleMatchesBitLevelOracle) {
  std::mt19937_64 rng(20240518);
  for (int trial = 0; trial < 2000; ++trial) {
    const ScoreMatrix scores = random_class_matrix(rng);
    const double factor = trial % 2 ? 1.0 / 3.0 : 0.7;
    GroupingOptions options;
    options.threshold_factor = factor;
    ASSERT_EQ(group_words(scores, options), bit_level_labels(scores, factor))
        << "trial " << trial;
  }
}

TEST(GroupingTest, ClassPairJoinsOnlyBitsWithAnEdge) {
  // Bits 0 and 2 share class 0. Only cell (0, 1) scores, and its one bit
  // pair is (0, 1): bit 2 has no edge. Uniting classes 0 and 1 would
  // wrongly put all three bits in one word.
  ScoreMatrix scores({0, 1, 0}, 2);
  scores.set(0, 1, 0.9);
  EXPECT_EQ(group_words(scores), (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(bit_level_labels(scores), (std::vector<int>{0, 0, 1}));
}

TEST(ScoreMatrixTest, SymmetricStorage) {
  ScoreMatrix scores(3);
  scores.set(0, 2, 0.42);
  EXPECT_DOUBLE_EQ(scores.at(2, 0), 0.42);
  EXPECT_DOUBLE_EQ(scores.at(0, 1), ScoreMatrix::kFiltered);
  EXPECT_THROW(scores.at(3, 0), util::CheckError);
}

TEST(ScoreMatrixTest, MaxAndFilteredFraction) {
  ScoreMatrix scores(3);
  EXPECT_DOUBLE_EQ(scores.max_score(), ScoreMatrix::kFiltered);
  EXPECT_DOUBLE_EQ(scores.filtered_fraction(), 1.0);
  scores.set(0, 1, 0.4);
  EXPECT_DOUBLE_EQ(scores.max_score(), 0.4);
  EXPECT_NEAR(scores.filtered_fraction(), 2.0 / 3.0, 1e-12);
}

TEST(ScoreMatrixTest, ClassCellsServeEveryBitPair) {
  ScoreMatrix scores({0, 0, 1, 0}, 2);
  scores.set(1, 2, 0.6);  // cell (0, 1): bit pairs (0, 2) and (1, 2)
  EXPECT_DOUBLE_EQ(scores.at(0, 2), 0.6);
  EXPECT_DOUBLE_EQ(scores.at(2, 1), 0.6);
  EXPECT_DOUBLE_EQ(scores.at(2, 3), ScoreMatrix::kFiltered);  // cell (1, 0)
  EXPECT_DOUBLE_EQ(scores.class_score(0, 1), 0.6);
  EXPECT_EQ(scores.num_classes(), 2);
  EXPECT_EQ(scores.class_of(3), 0);
  EXPECT_THROW(ScoreMatrix({0, 2}, 2), util::CheckError);
}

TEST(ScoreMatrixTest, DiagonalStaysFilteredWhenItsClassCellScores) {
  ScoreMatrix scores({0, 0, 1}, 2);
  scores.set(0, 1, 0.8);  // cell (0, 0)
  EXPECT_DOUBLE_EQ(scores.class_score(0, 0), 0.8);
  EXPECT_DOUBLE_EQ(scores.at(1, 0), 0.8);
  EXPECT_DOUBLE_EQ(scores.at(0, 0), ScoreMatrix::kFiltered);
  EXPECT_DOUBLE_EQ(scores.at(1, 1), ScoreMatrix::kFiltered);
}

TEST(ScoreMatrixTest, SelfPairWriteThrows) {
  ScoreMatrix classes({0, 0, 1}, 2);
  EXPECT_THROW(classes.set(1, 1, 0.5), util::CheckError);
  ScoreMatrix dense(3);
  EXPECT_THROW(dense.set(2, 2, 0.5), util::CheckError);
  EXPECT_DOUBLE_EQ(classes.max_score(), ScoreMatrix::kFiltered);
  EXPECT_DOUBLE_EQ(dense.max_score(), ScoreMatrix::kFiltered);
}

TEST(ScoreMatrixTest, SweepsMatchBruteForce) {
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    const ScoreMatrix scores = random_class_matrix(rng);
    const int n = scores.size();
    double max_score = ScoreMatrix::kFiltered;
    std::int64_t filtered = 0, total = 0;
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j) {
        max_score = std::max(max_score, scores.at(i, j));
        ++total;
        if (scores.at(i, j) == ScoreMatrix::kFiltered) ++filtered;
      }
    ASSERT_EQ(scores.max_score(), max_score) << "trial " << trial;
    ASSERT_EQ(scores.filtered_fraction(),
              total ? static_cast<double>(filtered) / total : 0.0)
        << "trial " << trial;
  }
}

TEST(ScoreMatrixTest, ClassStorageGrowsLinearlyInBits) {
  // n x n doubles would be 320 GB here.
  const int n = 200000;
  const util::WallTimer timer;
  std::vector<int> class_of(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) class_of[static_cast<std::size_t>(i)] = i % 3;
  ScoreMatrix scores(std::move(class_of), 3);
  scores.set(0, 1, 0.9);  // cell (0, 1) joins every bit of classes 0 and 1
  const std::vector<int> labels = group_words(scores);
  const double filtered = scores.filtered_fraction();
  EXPECT_LT(timer.seconds(), 1.0);

  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[199999], 0);  // last bit, class 1
  EXPECT_EQ(labels[2], 1);
  EXPECT_EQ(labels[5], 2);
  EXPECT_EQ(*std::max_element(labels.begin(), labels.end()), 66666);
  // Pairs (3a, 3b + 1) with b >= a, over 66,667 bits in each class.
  const double scored = 66667.0 * 66668.0 / 2.0;
  const double total = static_cast<double>(n) * (n - 1) / 2.0;
  EXPECT_DOUBLE_EQ(filtered, (total - scored) / total);
}

}  // namespace
}  // namespace rebert::core
