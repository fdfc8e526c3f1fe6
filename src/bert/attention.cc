#include "bert/attention.h"

#include <cmath>
#include <cstring>

#include "kernels/arena.h"
#include "kernels/kernels.h"
#include "util/check.h"

namespace rebert::bert {

using tensor::Tensor;

Tensor slice_cols(const Tensor& x, int c0, int c1) {
  // Head slicing bounds follow from H = heads * head_dim, proven at model
  // build time (check_model_graph); per-call cost matters (heads x layers).
  REBERT_DCHECK(x.rank() == 2 && c0 >= 0 && c1 <= x.dim(1) && c0 < c1);
  Tensor out({x.dim(0), c1 - c0});
  for (int i = 0; i < x.dim(0); ++i)
    for (int j = c0; j < c1; ++j) out.at(i, j - c0) = x.at(i, j);
  return out;
}

void add_into_cols(Tensor* dst, const Tensor& src, int c0) {
  REBERT_DCHECK(dst && dst->rank() == 2 && src.rank() == 2);
  REBERT_DCHECK(dst->dim(0) == src.dim(0) &&
                c0 + src.dim(1) <= dst->dim(1));
  for (int i = 0; i < src.dim(0); ++i)
    for (int j = 0; j < src.dim(1); ++j)
      dst->at(i, c0 + j) += src.at(i, j);
}

MultiHeadSelfAttention::MultiHeadSelfAttention(const std::string& name,
                                               const BertConfig& config,
                                               util::Rng& rng)
    : num_heads_(config.num_heads),
      head_dim_(config.head_dim()),
      query_(name + ".query", config.hidden, config.hidden, rng),
      key_(name + ".key", config.hidden, config.hidden, rng),
      value_(name + ".value", config.hidden, config.hidden, rng),
      output_(name + ".output", config.hidden, config.hidden, rng) {}

Tensor MultiHeadSelfAttention::forward(const Tensor& x, Cache* cache,
                                       int valid_len) const {
  const int hidden = num_heads_ * head_dim_;
  // Entry-point check stays always-on (public API, once per forward); the
  // per-head helpers below rely on the build-time graph check instead.
  REBERT_CHECK_MSG(x.rank() == 2 && x.dim(1) == hidden,
                   "attention input " << x.shape_string());
  const int n = x.dim(0);
  REBERT_CHECK_MSG(valid_len >= 0 && valid_len <= n,
                   "valid_len " << valid_len << " out of range for " << n);

  if (cache == nullptr) {
    Tensor y({n, hidden});
    forward_rows(x.data(), {RowSpan{0, n, valid_len}}, n, y.data());
    return y;
  }
  // Training path keeps the projections in the cache for backward.
  cache->q = query_.forward(x, &cache->q_cache);
  cache->k = key_.forward(x, &cache->k_cache);
  cache->v = value_.forward(x, &cache->v_cache);
  cache->probs.clear();
  cache->probs.reserve(static_cast<std::size_t>(num_heads_));
  cache->concat = Tensor({n, hidden});
  attend(cache->q.data(), cache->k.data(), cache->v.data(), n, valid_len,
         cache->concat.data(), &cache->probs);
  return output_.forward(cache->concat, &cache->out_cache);
}

void MultiHeadSelfAttention::forward_rows(const float* x,
                                          const std::vector<RowSpan>& spans,
                                          int rows, float* y) const {
  const int hidden = num_heads_ * head_dim_;
  // The projections, the per-head temporaries and the head outputs all
  // live in the per-thread scratch arena: after the first forward has
  // grown it to the working-set size, a forward makes no heap
  // allocations.
  kernels::ArenaScope scope;
  const std::size_t block = static_cast<std::size_t>(rows) * hidden;
  float* q = scope.floats(block);
  float* k = scope.floats(block);
  float* v = scope.floats(block);
  float* concat = scope.floats(block);
  query_.forward_rows(x, rows, q);
  key_.forward_rows(x, rows, k);
  value_.forward_rows(x, rows, v);
  for (const RowSpan& span : spans) {
    const std::size_t offset = static_cast<std::size_t>(span.row0) * hidden;
    attend(q + offset, k + offset, v + offset, span.length, span.valid_len,
           concat + offset, nullptr);
  }
  output_.forward_rows(concat, rows, y);
}

void MultiHeadSelfAttention::attend(const float* q, const float* k,
                                    const float* v, int n, int valid_len,
                                    float* concat,
                                    std::vector<Tensor>* probs) const {
  const int hidden = num_heads_ * head_dim_;
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  // -inf surrogate large enough to underflow to exactly 0 after softmax's
  // max-subtraction and exp.
  constexpr float kMaskValue = -1e9f;
  kernels::ArenaScope scope;
  const std::size_t head_elems = static_cast<std::size_t>(n) * head_dim_;
  float* qh = scope.floats(head_elems);
  float* kh = scope.floats(head_elems);
  float* vh = scope.floats(head_elems);
  float* scores = scope.floats(static_cast<std::size_t>(n) * n);
  float* oh = scope.floats(head_elems);
  const auto slice_head = [&](const float* src, int c0, float* dst) {
    for (int i = 0; i < n; ++i)
      std::memcpy(dst + static_cast<std::size_t>(i) * head_dim_,
                  src + static_cast<std::size_t>(i) * hidden + c0,
                  static_cast<std::size_t>(head_dim_) * sizeof(float));
  };

  for (int h = 0; h < num_heads_; ++h) {
    const int c0 = h * head_dim_;
    slice_head(q, c0, qh);
    slice_head(k, c0, kh);
    slice_head(v, c0, vh);
    kernels::gemm_nt(qh, kh, scores, n, head_dim_, n);
    kernels::scale(scores, inv_sqrt_d, static_cast<std::int64_t>(n) * n);
    if (valid_len > 0 && valid_len < n) {
      for (int i = 0; i < n; ++i) {
        float* srow = scores + static_cast<std::size_t>(i) * n;
        for (int j = valid_len; j < n; ++j) srow[j] = kMaskValue;
      }
    }
    kernels::softmax_rows(scores, n, n);
    if (probs != nullptr) {
      Tensor p({n, n});
      std::memcpy(p.data(), scores,
                  static_cast<std::size_t>(n) * n * sizeof(float));
      probs->push_back(std::move(p));
    }
    kernels::gemm(scores, vh, oh, n, n, head_dim_);
    // Heads own disjoint column blocks of concat, so this is a straight
    // scatter, not an accumulate.
    for (int i = 0; i < n; ++i)
      std::memcpy(concat + static_cast<std::size_t>(i) * hidden + c0,
                  oh + static_cast<std::size_t>(i) * head_dim_,
                  static_cast<std::size_t>(head_dim_) * sizeof(float));
  }
}

Tensor MultiHeadSelfAttention::backward(const Tensor& dy, const Cache& cache) {
  const int hidden = num_heads_ * head_dim_;
  const int n = dy.dim(0);
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  const Tensor d_concat = output_.backward(dy, cache.out_cache);

  Tensor dq({n, hidden}), dk({n, hidden}), dv({n, hidden});
  for (int h = 0; h < num_heads_; ++h) {
    const int c0 = h * head_dim_, c1 = c0 + head_dim_;
    const Tensor doh = slice_cols(d_concat, c0, c1);
    const Tensor qh = slice_cols(cache.q, c0, c1);
    const Tensor kh = slice_cols(cache.k, c0, c1);
    const Tensor vh = slice_cols(cache.v, c0, c1);
    const Tensor& probs = cache.probs[static_cast<std::size_t>(h)];

    // O = P V:  dP = dO V^T, dV = P^T dO.
    const Tensor dp = tensor::matmul_nt(doh, vh);
    const Tensor dvh = tensor::matmul_tn(probs, doh);
    // P = softmax(S): dS.
    Tensor ds = tensor::softmax_rows_backward(dp, probs);
    ds = tensor::scale(ds, inv_sqrt_d);
    // S = Q K^T: dQ = dS K, dK = dS^T Q.
    const Tensor dqh = tensor::matmul(ds, kh);
    const Tensor dkh = tensor::matmul_tn(ds, qh);

    add_into_cols(&dq, dqh, c0);
    add_into_cols(&dk, dkh, c0);
    add_into_cols(&dv, dvh, c0);
  }

  Tensor dx = query_.backward(dq, cache.q_cache);
  dx.add_scaled(key_.backward(dk, cache.k_cache), 1.0f);
  dx.add_scaled(value_.backward(dv, cache.v_cache), 1.0f);
  return dx;
}

std::vector<tensor::Parameter*> MultiHeadSelfAttention::parameters() {
  std::vector<tensor::Parameter*> params;
  for (auto* layer : {&query_, &key_, &value_, &output_})
    for (auto* p : layer->parameters()) params.push_back(p);
  return params;
}

}  // namespace rebert::bert
