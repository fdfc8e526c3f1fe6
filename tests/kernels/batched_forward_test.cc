// The stacked batched inference forward against the Tensor forward that
// training uses. On every backend, predict_same_word_probabilities must
// give each sequence the exact float the eval-mode Tensor forward gives it
// alone: the GEMM sums every output element over k in one order whatever
// the row count, every other row-wise op is row-local, and attention and
// GELU run per sequence. Labelled `kernels`, so the static-analysis gate
// re-runs it with each backend pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bert/model.h"
#include "kernels/backend.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace rebert::bert {
namespace {

using tensor::Tensor;

/// Widths chosen off the kernels' vector and panel multiples: hidden 36
/// leaves a partial 16-column GEMM panel, head_dim 12 a partial 8-lane
/// dot product, and intermediate 60 makes a span's GELU length fall
/// anywhere against the 8-lane vector width.
BertConfig odd_config() {
  BertConfig c;
  c.vocab_size = 40;
  c.hidden = 36;
  c.num_heads = 3;
  c.num_layers = 2;
  c.intermediate = 60;
  c.max_seq_len = 320;
  c.tree_code_dim = 8;
  c.dropout = 0.0f;
  c.seed = 1234;
  return c;
}

/// A random sequence of `length` tokens; `valid_len` > 0 pads the tail
/// with [PAD] (id 0) and zero tree codes, as the tokenizer does.
EncodedSequence random_sequence(const BertConfig& c, int length,
                                int valid_len, util::Rng& rng) {
  EncodedSequence s;
  s.valid_len = valid_len;
  const int real = valid_len > 0 ? valid_len : length;
  s.tree_codes = Tensor({length, c.tree_code_dim});
  for (int i = 0; i < length; ++i) {
    s.token_ids.push_back(i < real ? rng.uniform_int(1, c.vocab_size - 1)
                                   : 0);
    s.position_ids.push_back(i);
    if (i < real)
      for (int j = 0; j < c.tree_code_dim; ++j)
        s.tree_codes.at(i, j) = rng.bernoulli(0.3) ? 1.0f : 0.0f;
  }
  return s;
}

/// Lengths 2..120, about a quarter of them padded.
std::vector<EncodedSequence> random_batch(const BertConfig& c, int count,
                                          util::Rng& rng) {
  std::vector<EncodedSequence> batch;
  for (int b = 0; b < count; ++b) {
    const int length = rng.uniform_int(2, 120);
    const int valid_len =
        rng.bernoulli(0.25) ? rng.uniform_int(1, length - 1) : 0;
    batch.push_back(random_sequence(c, length, valid_len, rng));
  }
  return batch;
}

std::vector<const EncodedSequence*> pointers(
    const std::vector<EncodedSequence>& batch) {
  std::vector<const EncodedSequence*> out;
  for (const EncodedSequence& s : batch) out.push_back(&s);
  return out;
}

/// P(class 1) from the Tensor forward, as the batch=1 reference.
double reference_score(const BertPairClassifier& model,
                       const EncodedSequence& s) {
  return tensor::softmax_rows(model.eval_logits(s)).at(0, 1);
}

int total_rows(const std::vector<EncodedSequence>& batch) {
  int rows = 0;
  for (const EncodedSequence& s : batch) rows += s.length();
  return rows;
}

class BatchedForwardTest
    : public ::testing::TestWithParam<kernels::Backend> {
 protected:
  void SetUp() override {
    if (!kernels::backend_available(GetParam()))
      GTEST_SKIP() << "backend " << kernels::backend_name(GetParam())
                   << " unavailable on this host";
    previous_ = kernels::active_backend();
    kernels::set_backend(GetParam());
  }
  void TearDown() override {
    if (!IsSkipped()) kernels::set_backend(previous_);
  }

 private:
  kernels::Backend previous_ = kernels::Backend::kScalar;
};

TEST_P(BatchedForwardTest, ScoresAreBitIdenticalToTheTensorForward) {
  const BertConfig c = odd_config();
  const BertPairClassifier model(c);
  util::Rng rng(91);
  bool crossed_budget = false;
  for (int count : {1, 2, 7, 16, 33}) {
    const std::vector<EncodedSequence> batch = random_batch(c, count, rng);
    crossed_budget |= total_rows(batch) > BertPairClassifier::kStackedRows;
    const std::vector<double> scores =
        model.predict_same_word_probabilities(pointers(batch));
    ASSERT_EQ(scores.size(), batch.size());
    for (std::size_t s = 0; s < batch.size(); ++s)
      ASSERT_EQ(scores[s], reference_score(model, batch[s]))
          << "B=" << count << " sequence " << s << " length "
          << batch[s].length() << " valid_len " << batch[s].valid_len;
  }
  EXPECT_TRUE(crossed_budget) << "no batch exercised the row budget";
}

TEST_P(BatchedForwardTest, SequenceLongerThanTheRowBudgetGetsItsOwnBlock) {
  const BertConfig c = odd_config();
  const BertPairClassifier model(c);
  util::Rng rng(92);
  std::vector<EncodedSequence> batch = random_batch(c, 3, rng);
  batch.insert(batch.begin() + 1,
               random_sequence(c, BertPairClassifier::kStackedRows + 24,
                               BertPairClassifier::kStackedRows + 3, rng));
  const std::vector<double> scores =
      model.predict_same_word_probabilities(pointers(batch));
  for (std::size_t s = 0; s < batch.size(); ++s)
    ASSERT_EQ(scores[s], reference_score(model, batch[s]))
        << "sequence " << s;
}

TEST_P(BatchedForwardTest, ScoreDoesNotDependOnNeighboursOrPosition) {
  const BertConfig c = odd_config();
  const BertPairClassifier model(c);
  util::Rng rng(93);
  const std::vector<EncodedSequence> batch = random_batch(c, 16, rng);
  const std::vector<double> forward =
      model.predict_same_word_probabilities(pointers(batch));

  // Reversed order: every sequence gets new neighbours and a new offset
  // in its stacked block.
  std::vector<const EncodedSequence*> reversed = pointers(batch);
  std::reverse(reversed.begin(), reversed.end());
  const std::vector<double> backward =
      model.predict_same_word_probabilities(reversed);
  for (std::size_t s = 0; s < batch.size(); ++s)
    ASSERT_EQ(forward[s], backward[batch.size() - 1 - s])
        << "sequence " << s;

  // Alone, and next to a different batch.
  const std::vector<EncodedSequence> others = random_batch(c, 9, rng);
  for (std::size_t s = 0; s < batch.size(); ++s) {
    ASSERT_EQ(forward[s], model.predict_same_word_probability(batch[s]))
        << "sequence " << s;
    std::vector<const EncodedSequence*> mixed = pointers(others);
    mixed.insert(mixed.begin() + static_cast<std::ptrdiff_t>(s % 10),
                 &batch[s]);
    ASSERT_EQ(forward[s],
              model.predict_same_word_probabilities(mixed)[s % 10])
        << "sequence " << s;
  }
}

TEST_P(BatchedForwardTest, EmptyBatchScoresNothing) {
  const BertPairClassifier model(odd_config());
  EXPECT_TRUE(model.predict_same_word_probabilities({}).empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BatchedForwardTest,
    ::testing::Values(kernels::Backend::kScalar, kernels::Backend::kAvx2),
    [](const ::testing::TestParamInfo<kernels::Backend>& info) {
      return kernels::backend_name(info.param);
    });

}  // namespace
}  // namespace rebert::bert
