// Combined input embedding (§II-B).
//
// ReBERT sums three embeddings per token:
//   1. word embedding      — learned table over the gate-token vocabulary,
//   2. sequential positional embedding — learned table over positions,
//   3. tree-based positional embedding — the token's position in the bit's
//      binary tree, encoded as the root-to-node path code of §II-B-3
//      (root = all zeros; each child right-shifts the parent code by two and
//      prepends '10' for a left child, '01' for a right child), then
//      projected into the hidden space by a learned linear map.
// The sum is layer-normalized and dropout is applied, as in standard BERT.
#pragma once

#include <vector>

#include "bert/attention.h"
#include "bert/config.h"
#include "tensor/layers.h"

namespace rebert::bert {

/// One tokenized pair sequence ready for the model. Produced by
/// rebert::TokenEncoder; defined here so the model layer has no dependency
/// on the netlist pipeline.
struct EncodedSequence {
  std::vector<int> token_ids;       // length n, values < vocab_size
  std::vector<int> position_ids;    // length n, values < max_seq_len
  tensor::Tensor tree_codes;        // [n, tree_code_dim], entries in {0,1}
  /// Number of real (non-[PAD]) leading tokens; 0 means "no padding".
  /// Attention masks positions >= valid_len at every layer.
  int valid_len = 0;

  int length() const { return static_cast<int>(token_ids.size()); }
};

class BertEmbeddings {
 public:
  BertEmbeddings() = default;
  BertEmbeddings(const BertConfig& config, util::Rng& rng);

  struct Cache {
    tensor::Embedding::Cache word;
    tensor::Embedding::Cache position;
    tensor::Linear::Cache tree;
    tensor::LayerNorm::Cache norm;
    tensor::Dropout::Cache dropout;
    bool used_tree = false;
  };

  /// -> [n, hidden]. const: tables are only read; `rng` is consumed only
  /// when `training` (dropout), so concurrent eval forwards are safe.
  tensor::Tensor forward(const EncodedSequence& input, bool training,
                         util::Rng& rng, Cache* cache) const;

  /// Stacked inference forward: writes the embeddings of inputs[s] to the
  /// rows of spans[s] in y [rows, hidden]. Same per-element sums as
  /// forward() in eval mode; the tree projection and the LayerNorm run
  /// once over all rows.
  void forward_rows(const EncodedSequence* const* inputs,
                    const std::vector<RowSpan>& spans, int rows,
                    float* y) const;

  /// Accumulates all embedding gradients (no input gradient: ids are
  /// discrete and tree codes are fixed features).
  void backward(const tensor::Tensor& dy, const Cache& cache);

  std::vector<tensor::Parameter*> parameters();

 private:
  /// Throws util::CheckError unless `input` fits this configuration.
  void check_input(const EncodedSequence& input) const;

  BertConfig config_;
  tensor::Embedding word_;
  tensor::Embedding position_;
  tensor::Linear tree_projection_;
  tensor::LayerNorm norm_;
  tensor::Dropout dropout_{0.0f};
};

}  // namespace rebert::bert
