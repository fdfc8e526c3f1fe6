// bert.* and kernels.* layer timings at the workload's pair length. The
// layers are standalone public objects built at the model's configuration
// (fixed-seed init: cost does not depend on the weight values).
#include <functional>
#include <random>

#include "bert/attention.h"
#include "bert/embedding.h"
#include "bert/encoder_layer.h"
#include "common.h"
#include "kernels/aligned.h"
#include "kernels/kernels.h"
#include "stats.h"
#include "tensor/layers.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/timer.h"

namespace rebert::e2e {

namespace {

/// Median microseconds of one call to `fn`, timing each call, over at least
/// 0.1 s and 64 calls.
double median_us(const std::function<void()>& fn) {
  std::vector<double> samples;
  util::WallTimer budget;
  while (budget.seconds() < 0.1 || samples.size() < 64) {
    util::WallTimer t;
    fn();
    samples.push_back(t.seconds() * 1e6);
  }
  return summarize(std::move(samples)).median;
}

using Buffer = std::vector<float, kernels::AlignedAllocator<float>>;

Buffer random_buffer(std::size_t n, std::mt19937& rng) {
  std::normal_distribution<float> dist(0.0f, 1.0f);
  Buffer b(n);
  for (float& x : b) x = dist(rng);
  return b;
}

}  // namespace

void time_layers(const bert::BertConfig& config, int tokens, Report& report) {
  const int L = std::max(2, tokens);
  const int H = config.hidden;
  const int I = config.intermediate;
  const int d = config.head_dim();
  report.info("bert.timed_tokens", L, "tokens");

  util::Rng init(config.seed);
  const bert::BertEmbeddings embeddings(config, init);
  const bert::MultiHeadSelfAttention attention("encoder.0.attention", config,
                                               init);
  const bert::EncoderLayer layer("encoder.0", config, init);
  const tensor::Linear pooler("pooler", H, H, init);
  const tensor::Linear classifier("classifier", H, config.num_classes, init);

  bert::EncodedSequence input;
  std::mt19937 rng(1234);
  for (int i = 0; i < L; ++i) {
    input.token_ids.push_back(static_cast<int>(rng() % config.vocab_size));
    input.position_ids.push_back(i);
  }
  input.tree_codes = tensor::Tensor({L, config.tree_code_dim});
  for (std::int64_t i = 0; i < input.tree_codes.numel(); ++i)
    input.tree_codes[i] = static_cast<float>(rng() % 2);

  util::Rng eval_rng(0);
  bert::BertEmbeddings::Cache embedding_cache;
  const tensor::Tensor x = embeddings.forward(input, false, eval_rng, &embedding_cache);
  report.metric("bert.embedding_us", median_us([&] {
    bert::BertEmbeddings::Cache c;
    embeddings.forward(input, false, eval_rng, &c);
  }), "us");
  report.metric("bert.attention_us", median_us([&] {
    bert::MultiHeadSelfAttention::Cache c;
    attention.forward(x, &c, 0);
  }), "us");
  report.metric("bert.encoder_layer_us", median_us([&] {
    bert::EncoderLayer::Cache c;
    layer.forward(x, false, eval_rng, &c, 0);
  }), "us");
  tensor::Tensor first_row({1, H});
  for (int j = 0; j < H; ++j) first_row.at(0, j) = x.at(0, j);
  report.metric("bert.pooler_classifier_us", median_us([&] {
    tensor::Linear::Cache pc, cc;
    const tensor::Tensor pooled = tensor::tanh_forward(pooler.forward(first_row, &pc));
    classifier.forward(pooled, &cc);
  }), "us");

  // kernels at the forward's GEMM shapes: projections [L,H]x[H,H], FFN up
  // [L,H]x[H,I], FFN down [L,I]x[I,H], attention scores [L,d]x[L,d]^T.
  struct Gemm {
    const char* name;
    int m, k, n;
    bool nt;
  };
  const Gemm gemms[] = {{"proj", L, H, H, false},
                        {"ffn_up", L, H, I, false},
                        {"ffn_down", L, I, H, false},
                        {"scores", L, d, L, true}};
  for (const Gemm& g : gemms) {
    const Buffer a = random_buffer(static_cast<std::size_t>(g.m) * g.k, rng);
    const Buffer b = random_buffer(static_cast<std::size_t>(g.k) * g.n, rng);
    Buffer c(static_cast<std::size_t>(g.m) * g.n);
    const double us = median_us([&] {
      if (g.nt)
        kernels::gemm_nt(a.data(), b.data(), c.data(), g.m, g.k, g.n);
      else
        kernels::gemm(a.data(), b.data(), c.data(), g.m, g.k, g.n);
    });
    const double flops = 2.0 * g.m * g.k * g.n;
    const double bytes = 4.0 * (double(g.m) * g.k + double(g.k) * g.n +
                                double(g.m) * g.n);
    report.metric(std::string("kernels.gemm_") + g.name + "_gflops",
                  flops / (us * 1e3), "GFLOP/s");
    report.metric(std::string("kernels.gemm_") + g.name + "_bytes", bytes,
                  "bytes");
  }
  {
    Buffer scores = random_buffer(static_cast<std::size_t>(L) * L, rng);
    report.metric("kernels.softmax_us", median_us([&] {
      kernels::softmax_rows(scores.data(), L, L);
    }), "us");
    const Buffer in = random_buffer(static_cast<std::size_t>(L) * H, rng);
    const Buffer gamma(static_cast<std::size_t>(H), 1.0f);
    const Buffer beta(static_cast<std::size_t>(H), 0.0f);
    Buffer out(in.size());
    report.metric("kernels.layer_norm_us", median_us([&] {
      kernels::layer_norm(in.data(), gamma.data(), beta.data(), 1e-5f, L, H,
                          out.data(), nullptr, nullptr);
    }), "us");
    const Buffer pre = random_buffer(static_cast<std::size_t>(L) * I, rng);
    Buffer post(pre.size());
    report.metric("kernels.gelu_us", median_us([&] {
      kernels::gelu(pre.data(), post.data(), static_cast<std::int64_t>(pre.size()));
    }), "us");
  }
}

}  // namespace rebert::e2e
