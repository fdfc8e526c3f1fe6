#include "bert/model.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "kernels/arena.h"
#include "kernels/kernels.h"
#include "runtime/fault_injector.h"
#include "tensor/graphcheck.h"
#include "tensor/serialize.h"
#include "util/check.h"

namespace rebert::bert {

using tensor::Tensor;

void check_model_graph(const BertConfig& config,
                       const std::vector<tensor::Parameter*>& parameters) {
  const int n = tensor::kDynamicDim;  // sequence length, dynamic
  const int H = config.hidden;
  const int I = config.intermediate;

  std::unordered_map<std::string, const tensor::Parameter*> by_name;
  for (const tensor::Parameter* p : parameters) by_name.emplace(p->name, p);

  tensor::GraphCheck g("BertPairClassifier");
  auto check_param = [&](const std::string& name,
                         const tensor::ShapePattern& expected) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      g.require(false, "parameter '" + name + "' is missing");
      return;
    }
    g.param(name, it->second->value.shape(), expected);
    g.require(it->second->grad.shape() == it->second->value.shape(),
              "parameter '" + name + "' gradient shape differs from value");
  };

  g.require(config.num_heads >= 1 && H % config.num_heads == 0,
            "num_heads must divide hidden");
  g.require(config.num_classes >= 2, "classifier needs >= 2 classes");

  // Embedding: token ids [n] -> summed embeddings [n, H] -> LayerNorm.
  g.stage("embeddings.sum", {n}, {n, H});
  check_param("embeddings.word.table", {config.vocab_size, H});
  check_param("embeddings.position.table", {config.max_seq_len, H});
  check_param("embeddings.tree_projection.weight", {config.tree_code_dim, H});
  check_param("embeddings.tree_projection.bias", {H});
  g.stage("embeddings.norm", {n, H}, {n, H});
  check_param("embeddings.norm.gamma", {H});
  check_param("embeddings.norm.beta", {H});

  // Encoder stack: each layer maps [n, H] -> [n, H] through attention
  // (H split across heads) and the GELU FFN ([n, H] -> [n, I] -> [n, H]).
  for (int i = 0; i < config.num_layers; ++i) {
    const std::string prefix = "encoder." + std::to_string(i);
    g.stage(prefix + ".attention", {n, H}, {n, H});
    for (const char* proj : {"query", "key", "value", "output"}) {
      check_param(prefix + ".attention." + proj + ".weight", {H, H});
      check_param(prefix + ".attention." + proj + ".bias", {H});
    }
    g.stage(prefix + ".attention_norm", {n, H}, {n, H});
    check_param(prefix + ".attention_norm.gamma", {H});
    check_param(prefix + ".attention_norm.beta", {H});
    g.stage(prefix + ".intermediate", {n, H}, {n, I});
    check_param(prefix + ".intermediate.weight", {H, I});
    check_param(prefix + ".intermediate.bias", {I});
    g.stage(prefix + ".ffn_output", {n, I}, {n, H});
    check_param(prefix + ".ffn_output.weight", {I, H});
    check_param(prefix + ".ffn_output.bias", {H});
    g.stage(prefix + ".ffn_norm", {n, H}, {n, H});
    check_param(prefix + ".ffn_norm.gamma", {H});
    check_param(prefix + ".ffn_norm.beta", {H});
  }

  // Head: [CLS] slice -> pooler (tanh) -> classifier logits.
  g.stage("pooler.first_token", {n, H}, {1, H});
  g.stage("pooler", {1, H}, {1, H});
  check_param("pooler.weight", {H, H});
  check_param("pooler.bias", {H});
  g.stage("classifier", {1, H}, {1, config.num_classes});
  check_param("classifier.weight", {H, config.num_classes});
  check_param("classifier.bias", {config.num_classes});

  g.finish();
}

struct BertPairClassifier::ForwardCache {
  BertEmbeddings::Cache embeddings;
  std::vector<EncoderLayer::Cache> layers;
  int seq_len = 0;
  tensor::Linear::Cache pooler;
  Tensor pooled_tanh;  // tanh output, [1, H]
  tensor::Linear::Cache classifier;
};

BertPairClassifier::BertPairClassifier(const BertConfig& config)
    : config_(config),
      init_rng_(config.seed),
      dropout_rng_(config.seed ^ 0xd120u),
      embeddings_(config, init_rng_),
      pooler_("pooler", config.hidden, config.hidden, init_rng_),
      classifier_("classifier", config.hidden, config.num_classes,
                  init_rng_) {
  config_.validate();
  layers_.reserve(static_cast<std::size_t>(config.num_layers));
  for (int i = 0; i < config.num_layers; ++i)
    layers_.emplace_back("encoder." + std::to_string(i), config, init_rng_);
  // One cold-path pass proves the whole stage chain shape-consistent, so
  // the forward path does not re-check layer shapes per call.
  check_model_graph(config_, parameters());
}

Tensor BertPairClassifier::forward(const EncodedSequence& input,
                                   util::Rng* dropout_rng,
                                   ForwardCache* cache) const {
  const bool training = dropout_rng != nullptr;
  // Eval-mode layer forwards never consume randomness (dropout is the
  // identity), but the layer API threads an Rng through; hand them an
  // inert thread-local one so concurrent const inference shares no
  // mutable state whatsoever.
  static thread_local util::Rng inert_eval_rng(0);
  util::Rng& rng = training ? *dropout_rng : inert_eval_rng;

  ForwardCache local;
  ForwardCache& c = cache ? *cache : local;
  c.seq_len = input.length();
  c.layers.resize(layers_.size());

  Tensor hidden = embeddings_.forward(input, training, rng, &c.embeddings);
  for (std::size_t i = 0; i < layers_.size(); ++i)
    hidden = layers_[i].forward(hidden, training, rng, &c.layers[i],
                                input.valid_len);

  // Pooler: first token ([CLS]) -> linear -> tanh.
  Tensor first_row({1, config_.hidden});
  for (int j = 0; j < config_.hidden; ++j) first_row.at(0, j) = hidden.at(0, j);
  const Tensor pooled = pooler_.forward(first_row, &c.pooler);
  c.pooled_tanh = tensor::tanh_forward(pooled);
  return classifier_.forward(c.pooled_tanh, &c.classifier);
}

void BertPairClassifier::backward(const Tensor& d_logits,
                                  const ForwardCache& cache) {
  const Tensor d_pooled_tanh = classifier_.backward(d_logits,
                                                    cache.classifier);
  const Tensor d_pooled =
      tensor::tanh_backward(d_pooled_tanh, cache.pooled_tanh);
  const Tensor d_first_row = pooler_.backward(d_pooled, cache.pooler);

  // Only the first token receives gradient from the pooler.
  Tensor d_hidden({cache.seq_len, config_.hidden});
  for (int j = 0; j < config_.hidden; ++j)
    d_hidden.at(0, j) = d_first_row.at(0, j);

  for (std::size_t i = layers_.size(); i-- > 0;)
    d_hidden = layers_[i].backward(d_hidden, cache.layers[i]);
  embeddings_.backward(d_hidden, cache.embeddings);
}

void BertPairClassifier::forward_rows(const EncodedSequence* const* inputs,
                                      std::size_t count, double* out) const {
  const int h = config_.hidden;
  const int classes = config_.num_classes;
  const int batch = static_cast<int>(count);
  std::vector<RowSpan> spans(count);
  int rows = 0;
  for (std::size_t s = 0; s < count; ++s) {
    spans[s] = RowSpan{rows, inputs[s]->length(), inputs[s]->valid_len};
    rows += spans[s].length;
  }

  kernels::ArenaScope scope;
  float* x = scope.floats(static_cast<std::size_t>(rows) * h);
  embeddings_.forward_rows(inputs, spans, rows, x);
  for (const EncoderLayer& layer : layers_) layer.forward_rows(x, spans, rows);

  // Pooler and classifier over each sequence's first ([CLS]) row.
  float* first = scope.floats(count * static_cast<std::size_t>(h));
  for (std::size_t s = 0; s < count; ++s)
    std::copy_n(x + static_cast<std::size_t>(spans[s].row0) * h, h,
                first + s * static_cast<std::size_t>(h));
  float* pooled = scope.floats(count * static_cast<std::size_t>(h));
  pooler_.forward_rows(first, batch, pooled);
  for (std::size_t i = 0; i < count * static_cast<std::size_t>(h); ++i)
    pooled[i] = std::tanh(pooled[i]);
  float* logits = scope.floats(count * static_cast<std::size_t>(classes));
  classifier_.forward_rows(pooled, batch, logits);
  kernels::softmax_rows(logits, batch, classes);
  for (std::size_t s = 0; s < count; ++s)
    out[s] = logits[s * static_cast<std::size_t>(classes) + 1];
}

double BertPairClassifier::predict_same_word_probability(
    const EncodedSequence& input) const {
  return predict_same_word_probabilities({&input}).front();
}

std::vector<double> BertPairClassifier::predict_same_word_probabilities(
    const std::vector<const EncodedSequence*>& batch) const {
  // Chaos site: simulates an inference failure (bad checkpoint arithmetic,
  // a NaN tripwire from check_numerics, a future accelerator backend
  // erroring out). One check per sequence, all drawn before the batch
  // computes, so probability-armed chaos runs fail a deterministic
  // fraction of predictions whatever the batching.
  bool tripped = false;
  for (const EncodedSequence* input : batch) {
    REBERT_CHECK_MSG(input != nullptr, "null sequence in prediction batch");
    tripped |= runtime::FaultInjector::global().should_fail("model.forward");
  }
  if (tripped) throw runtime::InjectedFault("model.forward");

  std::vector<double> scores(batch.size());
  for (std::size_t begin = 0; begin < batch.size();) {
    std::size_t end = begin;
    int rows = 0;
    while (end < batch.size() &&
           (end == begin || rows + batch[end]->length() <= kStackedRows))
      rows += batch[end++]->length();
    forward_rows(batch.data() + begin, end - begin, scores.data() + begin);
    begin = end;
  }
  return scores;
}

Tensor BertPairClassifier::eval_logits(const EncodedSequence& input) const {
  return forward(input, /*dropout_rng=*/nullptr, nullptr);
}

double BertPairClassifier::train_step_accumulate(const EncodedSequence& input,
                                                 int label) {
  ForwardCache cache;
  const Tensor logits = forward(input, &dropout_rng_, &cache);
  Tensor d_logits;
  const double loss =
      tensor::cross_entropy_with_logits(logits, {label}, &d_logits);
  backward(d_logits, cache);
  return loss;
}

double BertPairClassifier::eval_loss(const EncodedSequence& input,
                                     int label) const {
  return tensor::cross_entropy_with_logits(eval_logits(input), {label},
                                          nullptr);
}

const std::vector<tensor::Parameter*>& BertPairClassifier::parameters() {
  if (parameter_list_.empty()) {
    for (auto* p : embeddings_.parameters()) parameter_list_.push_back(p);
    for (auto& layer : layers_)
      for (auto* p : layer.parameters()) parameter_list_.push_back(p);
    for (auto* p : pooler_.parameters()) parameter_list_.push_back(p);
    for (auto* p : classifier_.parameters()) parameter_list_.push_back(p);
  }
  return parameter_list_;
}

std::int64_t BertPairClassifier::num_parameters() {
  std::int64_t total = 0;
  for (const auto* p : parameters()) total += p->value.numel();
  return total;
}

void BertPairClassifier::save(const std::string& path) {
  tensor::save_parameters(parameters(), path);
}

void BertPairClassifier::load(const std::string& path) {
  tensor::load_parameters(parameters(), path);
}

}  // namespace rebert::bert
