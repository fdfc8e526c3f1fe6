// Determinism of the parallel scoring hot path: score_all_pairs must
// produce a bit-identical ScoreMatrix at any thread count (the property
// scoring.h documents and the acceptance bar for the concurrent runtime),
// and the same matrix as scoring every surviving bit pair on its own.
#include "rebert/scoring.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bert/config.h"
#include "circuitgen/suite.h"
#include "nl/corruption.h"
#include "nl/decompose.h"
#include "rebert/grouping.h"
#include "rebert/pipeline.h"
#include "rebert/vocab.h"
#include "runtime/thread_pool.h"

namespace rebert::core {
namespace {

struct Fixture {
  Fixture()
      : generated(gen::generate_benchmark("b03", 0.5)),
        tokenizer({.backtrace_depth = 4, .tree_code_dim = 8,
                   .max_seq_len = 128}),
        bits(tokenizer.tokenize_bits(generated.netlist)),
        model(make_config()) {}

  static bert::BertConfig make_config() {
    bert::BertConfig config = bert::eval_config(
        static_cast<int>(vocabulary().size()), 128);
    config.tree_code_dim = 8;
    config.hidden = 32;
    config.num_layers = 1;
    config.num_heads = 2;
    config.intermediate = 64;
    return config;
  }

  gen::GeneratedCircuit generated;
  Tokenizer tokenizer;
  std::vector<BitSequence> bits;
  bert::BertPairClassifier model;
};

void expect_identical(const ScoreMatrix& a, const ScoreMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i)
    for (int j = 0; j < a.size(); ++j)
      ASSERT_EQ(a.at(i, j), b.at(i, j)) << "cell (" << i << "," << j << ")";
}

/// The per-pair oracle: build_score_matrix encoding and forwarding every
/// surviving bit pair on its own, with no classes and no cache.
ScoreMatrix score_each_pair(const std::vector<BitSequence>& bits,
                            const Tokenizer& tokenizer,
                            const bert::BertPairClassifier& model) {
  return build_score_matrix(bits, FilterOptions{}, [&](int i, int j) {
    return model.predict_same_word_probability(tokenizer.encode_pair(
        bits[static_cast<std::size_t>(i)], bits[static_cast<std::size_t>(j)]));
  });
}

ScoreMatrix score_with_threads(Fixture& f, int threads, bool cached) {
  ScoringOptions options;
  options.num_threads = threads;
  ShardedPredictionCache cache;
  return score_all_pairs(f.bits, f.tokenizer, FilterOptions{}, f.model,
                         cached ? &cache : nullptr, options);
}

TEST(ScoreAllPairsTest, BitIdenticalAtOneTwoAndEightThreads) {
  Fixture f;
  const ScoreMatrix serial = score_with_threads(f, 1, /*cached=*/false);
  expect_identical(serial, score_with_threads(f, 2, false));
  expect_identical(serial, score_with_threads(f, 8, false));
}

TEST(ScoreAllPairsTest, SharedCacheDoesNotChangeParallelScores) {
  Fixture f;
  const ScoreMatrix uncached = score_with_threads(f, 1, false);
  expect_identical(uncached, score_with_threads(f, 1, true));
  expect_identical(uncached, score_with_threads(f, 8, true));
}

TEST(ScoreAllPairsTest, MatchesLegacySerialBuilder) {
  // score_all_pairs must agree exactly with the serial per-pair builder.
  Fixture f;
  const ScoreMatrix legacy = score_each_pair(f.bits, f.tokenizer, f.model);
  expect_identical(legacy, score_with_threads(f, 1, false));
  expect_identical(legacy, score_with_threads(f, 8, true));
}

TEST(ScoreAllPairsTest, ExternalPoolGivesSameMatrix) {
  Fixture f;
  const ScoreMatrix serial = score_with_threads(f, 1, false);
  runtime::ThreadPool pool(3);
  ScoringOptions options;
  options.pool = &pool;
  ShardedPredictionCache cache;
  const ScoreMatrix pooled = score_all_pairs(
      f.bits, f.tokenizer, FilterOptions{}, f.model, &cache, options);
  expect_identical(serial, pooled);
}

TEST(ScoreAllPairsTest, RespectsFilterInParallel) {
  Fixture f;
  ScoringOptions options;
  options.num_threads = 4;
  const ScoreMatrix scores = score_all_pairs(
      f.bits, f.tokenizer, FilterOptions{}, f.model, nullptr, options);
  const ScoreMatrix reference = score_each_pair(f.bits, f.tokenizer, f.model);
  EXPECT_EQ(scores.filtered_fraction(), reference.filtered_fraction());
}

TEST(RecoverWordsTest, LabelsIdenticalAcrossThreadCounts) {
  // End-to-end: the full pipeline (which routes through score_all_pairs)
  // recovers the same partition no matter the thread count.
  Fixture f;
  PipelineOptions options;
  options.tokenizer = f.tokenizer.options();
  options.num_threads = 1;
  const RecoveryResult serial =
      recover_words(f.generated.netlist, f.model, options);
  options.num_threads = 4;
  const RecoveryResult parallel =
      recover_words(f.generated.netlist, f.model, options);
  EXPECT_EQ(serial.labels, parallel.labels);
  EXPECT_EQ(serial.num_words, parallel.num_words);
}

/// Sequences of one benchmark at a scale giving it 20-70 bits (small
/// enough for the TSan run), corrupted at `r_index`.
std::vector<BitSequence> bench_sequences(const std::string& name,
                                         double r_index,
                                         const Tokenizer& tokenizer) {
  const double scale = name == "b18"                    ? 0.02
                       : name == "b17"                  ? 0.04
                       : name == "b14" || name == "b15" ? 0.15
                                                        : 0.5;
  nl::Netlist netlist = gen::generate_benchmark(name, scale).netlist;
  if (r_index > 0.0) {
    nl::CorruptionOptions corruption;
    corruption.r_index = r_index;
    netlist = nl::corrupt_netlist(netlist, corruption);
    if (!nl::is_2input(netlist)) netlist = nl::decompose_to_2input(netlist);
  }
  return tokenizer.tokenize_bits(netlist);
}

/// score_all_pairs against the per-pair oracle over every scheduling
/// variant: 1, 2 and 8 threads and an external pool, cache on and off.
void expect_matches_oracle(const std::vector<BitSequence>& bits,
                           const Fixture& f, const std::string& what) {
  SCOPED_TRACE(what);
  const ScoreMatrix oracle = score_each_pair(bits, f.tokenizer, f.model);
  const std::vector<int> labels = group_words(oracle);
  runtime::ThreadPool pool(3);
  for (int threads : {1, 2, 8, 0}) {
    for (bool cached : {false, true}) {
      SCOPED_TRACE(threads == 0 ? std::string("external pool")
                                : std::to_string(threads) + " threads");
      SCOPED_TRACE(cached ? "cache on" : "cache off");
      ScoringOptions options;
      options.num_threads = threads;
      if (threads == 0) options.pool = &pool;
      ShardedPredictionCache cache;
      const ScoreMatrix scores =
          score_all_pairs(bits, f.tokenizer, FilterOptions{}, f.model,
                          cached ? &cache : nullptr, options);
      expect_identical(oracle, scores);
      EXPECT_EQ(labels, group_words(scores));
    }
  }
}

TEST(ClassScoringTest, MatchesPerPairOracleOnEveryBenchmark) {
  const Fixture f;
  for (const std::string& name : gen::benchmark_names())
    for (double r_index : {0.0, 0.5})
      expect_matches_oracle(bench_sequences(name, r_index, f.tokenizer), f,
                            name + " R=" + std::to_string(r_index));
}

TEST(ClassScoringTest, ColdCacheForwardsEachKeyOnce) {
  const Fixture f;
  for (double r_index : {0.0, 0.5}) {
    SCOPED_TRACE("R=" + std::to_string(r_index));
    const std::vector<BitSequence> bits =
        bench_sequences("b18", r_index, f.tokenizer);
    std::set<std::uint64_t> survivor_keys;
    std::uint64_t survivors = 0;
    for (std::size_t i = 0; i < bits.size(); ++i)
      for (std::size_t j = i + 1; j < bits.size(); ++j)
        if (passes_filter(bits[i], bits[j], FilterOptions{})) {
          ++survivors;
          survivor_keys.insert(PredictionCache::key_of(bits[i], bits[j]));
        }
    ASSERT_LT(survivor_keys.size(), survivors);  // the input repeats

    ScoringOptions options;
    options.num_threads = 8;
    ShardedPredictionCache cache;
    score_all_pairs(bits, f.tokenizer, FilterOptions{}, f.model, &cache,
                    options);
    EXPECT_EQ(cache.hits() + cache.misses(), survivors);
    EXPECT_EQ(cache.misses(), cache.size());  // no key forwarded twice
    std::set<std::uint64_t> cached_keys;
    for (const auto& [key, score] : cache.export_entries())
      cached_keys.insert(key);
    EXPECT_EQ(cached_keys, survivor_keys);
  }
}

TEST(ClassScoringTest, AllSequencesDistinct) {
  const Fixture f;
  std::vector<BitSequence> distinct;
  for (const BitSequence& seq : bench_sequences("b17", 0.5, f.tokenizer)) {
    bool seen = false;
    for (const BitSequence& kept : distinct)
      seen = seen || (kept.token_ids == seq.token_ids &&
                      kept.tree_codes == seq.tree_codes);
    if (!seen) distinct.push_back(seq);
  }
  ASSERT_GE(distinct.size(), 10u);
  expect_matches_oracle(distinct, f, "all distinct");
}

TEST(ClassScoringTest, AllSequencesIdentical) {
  const Fixture f;
  const std::vector<BitSequence> same(24, f.bits.front());
  expect_matches_oracle(same, f, "all identical");

  // One class pair: a single forward, then hits for the other pairs.
  ScoringOptions options;
  options.num_threads = 8;
  ShardedPredictionCache cache;
  score_all_pairs(same, f.tokenizer, FilterOptions{}, f.model, &cache,
                  options);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 24u * 23u / 2u - 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ClassScoringTest, SingleBit) {
  const Fixture f;
  const std::vector<BitSequence> one(1, f.bits.front());
  expect_matches_oracle(one, f, "n = 1");
  ShardedPredictionCache cache;
  const ScoreMatrix scores =
      score_all_pairs(one, f.tokenizer, FilterOptions{}, f.model, &cache);
  EXPECT_EQ(scores.at(0, 0), ScoreMatrix::kFiltered);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

}  // namespace
}  // namespace rebert::core
