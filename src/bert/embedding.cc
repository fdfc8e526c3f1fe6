#include "bert/embedding.h"

#include <algorithm>

#include "kernels/arena.h"
#include "kernels/kernels.h"
#include "util/check.h"

namespace rebert::bert {

using tensor::Tensor;

BertEmbeddings::BertEmbeddings(const BertConfig& config, util::Rng& rng)
    : config_(config),
      word_("embeddings.word", config.vocab_size, config.hidden, rng),
      position_("embeddings.position", config.max_seq_len, config.hidden,
                rng),
      tree_projection_("embeddings.tree_projection", config.tree_code_dim,
                       config.hidden, rng),
      norm_("embeddings.norm", config.hidden),
      dropout_(config.dropout) {
  config.validate();
}

void BertEmbeddings::check_input(const EncodedSequence& input) const {
  const int n = input.length();
  REBERT_CHECK_MSG(n >= 1, "empty sequence");
  REBERT_CHECK_MSG(static_cast<int>(input.position_ids.size()) == n,
                   "position_ids length mismatch");
  REBERT_CHECK_MSG(input.valid_len >= 0 && input.valid_len <= n,
                   "valid_len " << input.valid_len << " out of range for "
                                << n);
  for (int id : input.token_ids)
    REBERT_CHECK_MSG(id >= 0 && id < config_.vocab_size,
                     "token id " << id << " out of vocabulary");
  for (int p : input.position_ids)
    REBERT_CHECK_MSG(p >= 0 && p < config_.max_seq_len,
                     "position " << p << " exceeds max_seq_len "
                                 << config_.max_seq_len);
  if (config_.use_tree_embedding)
    REBERT_CHECK_MSG(input.tree_codes.rank() == 2 &&
                         input.tree_codes.dim(0) == n &&
                         input.tree_codes.dim(1) == config_.tree_code_dim,
                     "tree_codes shape " << input.tree_codes.shape_string()
                                         << " (expected [" << n << ","
                                         << config_.tree_code_dim << "])");
}

Tensor BertEmbeddings::forward(const EncodedSequence& input, bool training,
                               util::Rng& rng, Cache* cache) const {
  check_input(input);
  const int n = input.length();
  Tensor sum({n, config_.hidden});
  if (config_.use_word_embedding) {
    const Tensor w = word_.forward(input.token_ids,
                                   cache ? &cache->word : nullptr);
    sum.add_scaled(w, 1.0f);
  }
  if (config_.use_position_embedding) {
    const Tensor p = position_.forward(input.position_ids,
                                       cache ? &cache->position : nullptr);
    sum.add_scaled(p, 1.0f);
  }
  if (config_.use_tree_embedding) {
    const Tensor t = tree_projection_.forward(input.tree_codes,
                                              cache ? &cache->tree : nullptr);
    sum.add_scaled(t, 1.0f);
    if (cache) cache->used_tree = true;
  } else if (cache) {
    cache->used_tree = false;
  }

  Tensor normed = norm_.forward(sum, cache ? &cache->norm : nullptr);
  return dropout_.forward(normed, training, rng,
                          cache ? &cache->dropout : nullptr);
}

void BertEmbeddings::forward_rows(const EncodedSequence* const* inputs,
                                  const std::vector<RowSpan>& spans,
                                  int rows, float* y) const {
  const int h = config_.hidden;
  const int t = config_.tree_code_dim;
  kernels::ArenaScope scope;
  // The sum starts at zero and adds each enabled table in forward()'s
  // order, so every element takes the same roundings.
  float* sum = scope.floats(static_cast<std::size_t>(rows) * h);
  std::fill(sum, sum + static_cast<std::size_t>(rows) * h, 0.0f);
  float* codes = config_.use_tree_embedding
                     ? scope.floats(static_cast<std::size_t>(rows) * t)
                     : nullptr;
  const auto add_table_row = [h](float* row, const tensor::Embedding& table,
                                  int id) {
    kernels::axpy(row,
                  table.table.value.data() + static_cast<std::size_t>(id) * h,
                  1.0f, h);
  };
  for (std::size_t s = 0; s < spans.size(); ++s) {
    const EncodedSequence& input = *inputs[s];
    check_input(input);
    const RowSpan& span = spans[s];
    for (int i = 0; i < span.length; ++i) {
      float* row = sum + static_cast<std::size_t>(span.row0 + i) * h;
      const std::size_t token = static_cast<std::size_t>(i);
      if (config_.use_word_embedding)
        add_table_row(row, word_, input.token_ids[token]);
      if (config_.use_position_embedding)
        add_table_row(row, position_, input.position_ids[token]);
    }
    if (codes != nullptr)
      std::copy(input.tree_codes.data(),
                input.tree_codes.data() + input.tree_codes.numel(),
                codes + static_cast<std::size_t>(span.row0) * t);
  }
  if (codes != nullptr) {
    float* projected = scope.floats(static_cast<std::size_t>(rows) * h);
    tree_projection_.forward_rows(codes, rows, projected);
    kernels::axpy(sum, projected, 1.0f, static_cast<std::int64_t>(rows) * h);
  }
  // Dropout is the identity at inference.
  norm_.forward_rows(sum, rows, y);
}

void BertEmbeddings::backward(const Tensor& dy, const Cache& cache) {
  const Tensor d_norm = dropout_.backward(dy, cache.dropout);
  const Tensor d_sum = norm_.backward(d_norm, cache.norm);
  if (config_.use_word_embedding) word_.backward(d_sum, cache.word);
  if (config_.use_position_embedding)
    position_.backward(d_sum, cache.position);
  if (cache.used_tree) tree_projection_.backward(d_sum, cache.tree);
}

std::vector<tensor::Parameter*> BertEmbeddings::parameters() {
  std::vector<tensor::Parameter*> params;
  // All parameters are registered regardless of ablation flags so that
  // checkpoints keep a stable layout; disabled embeddings simply receive no
  // gradient.
  for (auto* p : word_.parameters()) params.push_back(p);
  for (auto* p : position_.parameters()) params.push_back(p);
  for (auto* p : tree_projection_.parameters()) params.push_back(p);
  for (auto* p : norm_.parameters()) params.push_back(p);
  return params;
}

}  // namespace rebert::bert
