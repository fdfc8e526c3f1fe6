#include "bert/encoder_layer.h"

#include "kernels/arena.h"
#include "kernels/kernels.h"
#include "util/check.h"

namespace rebert::bert {

using tensor::Tensor;

EncoderLayer::EncoderLayer(const std::string& name, const BertConfig& config,
                           util::Rng& rng)
    : attention_(name + ".attention", config, rng),
      attention_norm_(name + ".attention_norm", config.hidden),
      intermediate_(name + ".intermediate", config.hidden,
                    config.intermediate, rng),
      ffn_output_(name + ".ffn_output", config.intermediate, config.hidden,
                  rng),
      ffn_norm_(name + ".ffn_norm", config.hidden),
      dropout_(config.dropout) {}

Tensor EncoderLayer::forward(const Tensor& x, bool training, util::Rng& rng,
                             Cache* cache, int valid_len) const {
  Cache local;
  Cache& c = cache ? *cache : local;

  // Attention block with residual.
  Tensor att = attention_.forward(x, &c.attention, valid_len);
  att = dropout_.forward(att, training, rng, &c.attention_dropout);
  const Tensor att_res = tensor::add(x, att);
  const Tensor att_normed = attention_norm_.forward(att_res,
                                                    &c.attention_norm);

  // Feed-forward block with residual.
  const Tensor pre_act = intermediate_.forward(att_normed, &c.intermediate);
  c.intermediate_pre_act = pre_act;
  const Tensor activated = tensor::gelu(pre_act);
  Tensor ffn = ffn_output_.forward(activated, &c.ffn_output);
  ffn = dropout_.forward(ffn, training, rng, &c.ffn_dropout);
  const Tensor ffn_res = tensor::add(att_normed, ffn);
  return ffn_norm_.forward(ffn_res, &c.ffn_norm);
}

void EncoderLayer::forward_rows(float* x, const std::vector<RowSpan>& spans,
                                int rows) const {
  const int h = intermediate_.in_features();
  const int inner = intermediate_.out_features();
  const std::int64_t block = static_cast<std::int64_t>(rows) * h;
  kernels::ArenaScope scope;
  float* sub = scope.floats(static_cast<std::size_t>(block));
  float* up = scope.floats(static_cast<std::size_t>(rows) * inner);
  float* act = scope.floats(static_cast<std::size_t>(rows) * inner);

  // Attention block with residual; dropout is the identity at inference.
  attention_.forward_rows(x, spans, rows, sub);
  kernels::axpy(sub, x, 1.0f, block);
  attention_norm_.forward_rows(sub, rows, x);

  // Feed-forward block with residual. GELU runs span by span: its SIMD
  // tail depends on the buffer length, so one call over the whole block
  // could round differently from forward() when inner % 8 != 0.
  intermediate_.forward_rows(x, rows, up);
  for (const RowSpan& span : spans) {
    const std::size_t offset = static_cast<std::size_t>(span.row0) * inner;
    kernels::gelu(up + offset, act + offset,
                  static_cast<std::int64_t>(span.length) * inner);
  }
  ffn_output_.forward_rows(act, rows, sub);
  kernels::axpy(sub, x, 1.0f, block);
  ffn_norm_.forward_rows(sub, rows, x);
}

Tensor EncoderLayer::backward(const Tensor& dy, const Cache& cache) {
  // Unwind: ffn_norm -> residual split -> ffn -> attention_norm ->
  // residual split -> attention.
  const Tensor d_ffn_res = ffn_norm_.backward(dy, cache.ffn_norm);
  // ffn_res = att_normed + dropout(ffn): gradient flows to both.
  const Tensor d_ffn_drop = dropout_.backward(d_ffn_res, cache.ffn_dropout);
  const Tensor d_activated = ffn_output_.backward(d_ffn_drop,
                                                  cache.ffn_output);
  const Tensor d_pre_act =
      tensor::gelu_backward(d_activated, cache.intermediate_pre_act);
  Tensor d_att_normed = intermediate_.backward(d_pre_act, cache.intermediate);
  d_att_normed.add_scaled(d_ffn_res, 1.0f);  // residual path

  const Tensor d_att_res =
      attention_norm_.backward(d_att_normed, cache.attention_norm);
  const Tensor d_att_drop =
      dropout_.backward(d_att_res, cache.attention_dropout);
  Tensor dx = attention_.backward(d_att_drop, cache.attention);
  dx.add_scaled(d_att_res, 1.0f);  // residual path
  return dx;
}

std::vector<tensor::Parameter*> EncoderLayer::parameters() {
  std::vector<tensor::Parameter*> params;
  for (auto* p : attention_.parameters()) params.push_back(p);
  for (auto* p : attention_norm_.parameters()) params.push_back(p);
  for (auto* p : intermediate_.parameters()) params.push_back(p);
  for (auto* p : ffn_output_.parameters()) params.push_back(p);
  for (auto* p : ffn_norm_.parameters()) params.push_back(p);
  return params;
}

}  // namespace rebert::bert
