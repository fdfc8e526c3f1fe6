// One BERT encoder layer (§II-C):
//   attention -> dropout -> Add & Norm -> FFN(GELU) -> dropout -> Add & Norm.
#pragma once

#include "bert/attention.h"
#include "bert/config.h"
#include "tensor/layers.h"

namespace rebert::bert {

class EncoderLayer {
 public:
  EncoderLayer() = default;
  EncoderLayer(const std::string& name, const BertConfig& config,
               util::Rng& rng);

  struct Cache {
    MultiHeadSelfAttention::Cache attention;
    tensor::Dropout::Cache attention_dropout;
    tensor::LayerNorm::Cache attention_norm;
    tensor::Linear::Cache intermediate;
    tensor::Tensor intermediate_pre_act;  // FFN pre-GELU activations
    tensor::Linear::Cache ffn_output;
    tensor::Dropout::Cache ffn_dropout;
    tensor::LayerNorm::Cache ffn_norm;
  };

  /// `valid_len` > 0 masks trailing [PAD] positions in the attention
  /// sublayer (see MultiHeadSelfAttention::forward). const: parameters are
  /// only read, so concurrent eval-mode forwards are safe; `rng` is
  /// consumed only when `training` (dropout masks).
  tensor::Tensor forward(const tensor::Tensor& x, bool training,
                         util::Rng& rng, Cache* cache,
                         int valid_len = 0) const;
  tensor::Tensor backward(const tensor::Tensor& dy, const Cache& cache);

  /// Stacked inference forward, in place: x [rows, hidden] holds the
  /// sequences of `spans` back to back. Every row-wise op runs once over
  /// all rows; attention and GELU run per span. Same per-element
  /// arithmetic as forward() in eval mode.
  void forward_rows(float* x, const std::vector<RowSpan>& spans,
                    int rows) const;

  std::vector<tensor::Parameter*> parameters();

 private:
  MultiHeadSelfAttention attention_;
  tensor::LayerNorm attention_norm_;
  tensor::Linear intermediate_;  // H -> intermediate ("BERT Intermediate")
  tensor::Linear ffn_output_;    // intermediate -> H ("BERT Output")
  tensor::LayerNorm ffn_norm_;
  tensor::Dropout dropout_{0.0f};
};

}  // namespace rebert::bert
