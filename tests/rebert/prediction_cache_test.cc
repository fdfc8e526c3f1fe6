#include "rebert/prediction_cache.h"

#include <gtest/gtest.h>

#include "circuitgen/suite.h"
#include "rebert/pipeline.h"
#include "rebert/scoring.h"

namespace rebert::core {
namespace {

BitSequence make_sequence(std::vector<int> tokens) {
  BitSequence seq;
  seq.token_ids = std::move(tokens);
  seq.tree_codes.assign(seq.token_ids.size(),
                        std::vector<std::uint8_t>(8, 0));
  return seq;
}

TEST(PredictionCacheTest, HitAfterInsert) {
  PredictionCache cache;
  const BitSequence a = make_sequence({1, 2, 3});
  const BitSequence b = make_sequence({4, 5});
  const std::uint64_t key = PredictionCache::key_of(a, b);
  double score = 0.0;
  EXPECT_FALSE(cache.lookup(key, &score));
  cache.insert(key, 0.42);
  ASSERT_TRUE(cache.lookup(key, &score));
  EXPECT_DOUBLE_EQ(score, 0.42);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PredictionCacheTest, KeyIsOrderSensitive) {
  // encode_pair(a,b) and encode_pair(b,a) are different model inputs.
  const BitSequence a = make_sequence({1, 2, 3});
  const BitSequence b = make_sequence({4, 5});
  EXPECT_NE(PredictionCache::key_of(a, b), PredictionCache::key_of(b, a));
}

TEST(PredictionCacheTest, KeyDependsOnTokensAndCodes) {
  const BitSequence a = make_sequence({1, 2, 3});
  BitSequence a2 = make_sequence({1, 2, 3});
  EXPECT_EQ(PredictionCache::key_of(a, a), PredictionCache::key_of(a2, a2));
  a2.token_ids[2] = 9;
  EXPECT_NE(PredictionCache::key_of(a, a), PredictionCache::key_of(a2, a2));
  BitSequence a3 = make_sequence({1, 2, 3});
  a3.tree_codes[1][0] = 1;  // same tokens, different tree position
  EXPECT_NE(PredictionCache::key_of(a, a), PredictionCache::key_of(a3, a3));
}

TEST(PredictionCacheTest, CachedScoringIsBitIdentical) {
  // The headline property: caching must not change the score matrix.
  gen::GeneratedCircuit g = gen::generate_benchmark("b03", 0.5);
  const Tokenizer tokenizer({.backtrace_depth = 4, .tree_code_dim = 8,
                             .max_seq_len = 128});
  const auto bits = tokenizer.tokenize_bits(g.netlist);

  bert::BertConfig config = bert::eval_config(32, 128);
  config.tree_code_dim = 8;
  config.hidden = 32;
  config.num_layers = 1;
  config.num_heads = 2;
  config.intermediate = 64;
  bert::BertPairClassifier model(config);

  // The per-pair oracle: encode and forward every surviving pair.
  const auto forward = [&](int i, int j) {
    return model.predict_same_word_probability(tokenizer.encode_pair(
        bits[static_cast<std::size_t>(i)], bits[static_cast<std::size_t>(j)]));
  };
  const ScoreMatrix uncached =
      build_score_matrix(bits, FilterOptions{}, forward);
  PredictionCache cache;
  const ScoreMatrix cached =
      build_score_matrix(bits, FilterOptions{}, [&](int i, int j) {
        const std::uint64_t key = PredictionCache::key_of(
            bits[static_cast<std::size_t>(i)],
            bits[static_cast<std::size_t>(j)]);
        double score = 0.0;
        if (cache.lookup(key, &score)) return score;
        score = forward(i, j);
        cache.insert(key, score);
        return score;
      });

  ASSERT_EQ(uncached.size(), cached.size());
  for (int i = 0; i < uncached.size(); ++i)
    for (int j = 0; j < uncached.size(); ++j)
      EXPECT_DOUBLE_EQ(uncached.at(i, j), cached.at(i, j));
  // Template-rich circuit: the cache must actually hit.
  EXPECT_GT(cache.hits(), 0u);
}

TEST(PredictionCacheTest, PipelineReportsHitRate) {
  gen::GeneratedCircuit g = gen::generate_benchmark("b03", 0.5);
  PipelineOptions options;
  options.tokenizer.backtrace_depth = 4;
  options.tokenizer.tree_code_dim = 8;
  options.tokenizer.max_seq_len = 128;

  bert::BertConfig config = bert::eval_config(32, 128);
  config.tree_code_dim = 8;
  bert::BertPairClassifier model(config);

  const RecoveryResult with_cache =
      recover_words(g.netlist, model, options);
  EXPECT_GE(with_cache.cache_hit_rate, 0.0);

  options.use_prediction_cache = false;
  const RecoveryResult without_cache =
      recover_words(g.netlist, model, options);
  EXPECT_DOUBLE_EQ(without_cache.cache_hit_rate, 0.0);
  // Identical partitions either way.
  EXPECT_EQ(with_cache.labels, without_cache.labels);
}

}  // namespace
}  // namespace rebert::core
