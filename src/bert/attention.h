// Multi-head self-attention with Add & Norm (§II-C "Attention").
//
// Standard BERT attention over one sequence x ∈ R^{n×H}:
//   Q = xW_q, K = xW_k, V = xW_v; per head h of width d = H/heads:
//   S_h = Q_h K_h^T / sqrt(d),  P_h = softmax(S_h),  O_h = P_h V_h;
//   y = concat(O_h) W_o + b_o.
// The residual connection and LayerNorm live in EncoderLayer. The backward
// pass is explicit and finite-difference-checked in the tests.
#pragma once

#include <vector>

#include "bert/config.h"
#include "tensor/layers.h"

namespace rebert::bert {

/// One sequence's rows inside a stacked [rows, hidden] block: the batched
/// inference forward copies a micro-batch of sequences back to back and
/// runs every row-wise op once over the whole block.
struct RowSpan {
  int row0 = 0;       // first row of the sequence in the block
  int length = 0;     // its rows
  int valid_len = 0;  // > 0 masks rows >= valid_len; 0 = no padding
};

class MultiHeadSelfAttention {
 public:
  MultiHeadSelfAttention() = default;
  MultiHeadSelfAttention(const std::string& name, const BertConfig& config,
                         util::Rng& rng);

  struct Cache {
    tensor::Linear::Cache q_cache, k_cache, v_cache, out_cache;
    tensor::Tensor q, k, v;                 // [n, H]
    std::vector<tensor::Tensor> probs;      // per head, [n, n]
    tensor::Tensor concat;                  // [n, H] head outputs
  };

  /// x: [n, hidden] -> [n, hidden]. `valid_len` masks padding: when > 0,
  /// attention scores onto positions >= valid_len are forced to -inf so
  /// [PAD] tokens (§II-A-3 pads pair sequences to a uniform length) can
  /// never influence real positions. 0 means "no padding".
  /// const: reads only the projection parameters, so concurrent forward
  /// calls on one instance are safe (each caller owns its Cache). Without
  /// a cache this is forward_rows over one span.
  tensor::Tensor forward(const tensor::Tensor& x, Cache* cache,
                         int valid_len = 0) const;

  /// Stacked inference forward: x [rows, hidden] holds the sequences of
  /// `spans` back to back; writes [rows, hidden] to y (disjoint from x).
  /// The Q/K/V and output projections run once over all rows; attention
  /// runs per span, so no sequence attends to another. Scratch comes from
  /// the thread arena.
  void forward_rows(const float* x, const std::vector<RowSpan>& spans,
                    int rows, float* y) const;

  /// Returns dx; accumulates all projection gradients.
  tensor::Tensor backward(const tensor::Tensor& dy, const Cache& cache);

  std::vector<tensor::Parameter*> parameters();

  int num_heads() const { return num_heads_; }

 private:
  /// Per-head scores -> mask -> softmax -> context over one sequence of n
  /// rows. q, k, v and concat are [n, hidden] row blocks (row stride
  /// hidden); the heads write disjoint column blocks of concat. When
  /// `probs` is non-null each head's [n, n] probabilities are appended.
  void attend(const float* q, const float* k, const float* v, int n,
              int valid_len, float* concat,
              std::vector<tensor::Tensor>* probs) const;

  int num_heads_ = 1;
  int head_dim_ = 1;
  tensor::Linear query_, key_, value_, output_;
};

/// Copy columns [c0, c1) of a matrix into a new matrix.
tensor::Tensor slice_cols(const tensor::Tensor& x, int c0, int c1);
/// Add `src` into columns [c0, ...) of `dst`.
void add_into_cols(tensor::Tensor* dst, const tensor::Tensor& src, int c0);

}  // namespace rebert::bert
