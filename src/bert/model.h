// BertPairClassifier: the full ReBERT model (Fig. 1 + Fig. 4).
//
// embeddings -> N encoder layers -> pooler (first token, linear + tanh) ->
// classifier head (2 classes: "same word" / "different word"). The
// probability of class 1 is the pairwise score used by the word-generation
// stage.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bert/embedding.h"
#include "bert/encoder_layer.h"

namespace rebert::bert {

/// Cold-path static check of the whole model graph: verifies shape
/// compatibility end-to-end (embedding -> attention heads -> FFN -> pooler
/// -> classifier) and every parameter's shape against the configuration.
/// Run once at model build time by the BertPairClassifier constructor;
/// throws util::CheckError listing *all* inconsistencies. This replaces
/// per-forward-call shape checking on the hot path (see tensor/graphcheck.h).
void check_model_graph(const BertConfig& config,
                       const std::vector<tensor::Parameter*>& parameters);

class BertPairClassifier {
 public:
  explicit BertPairClassifier(const BertConfig& config);

  // parameters() hands out pointers into the member layers; copying or
  // moving would leave them dangling.
  BertPairClassifier(const BertPairClassifier&) = delete;
  BertPairClassifier& operator=(const BertPairClassifier&) = delete;

  const BertConfig& config() const { return config_; }

  /// Probability that the pair belongs to the same word (class 1);
  /// inference mode (no dropout). A one-element predict batch.
  ///
  /// Thread safety: const inference reads parameters only (dropout is the
  /// identity in eval mode and its RNG is never touched), so any number of
  /// threads may score pairs against one shared model snapshot
  /// concurrently. Training methods are NOT concurrency-safe and must not
  /// overlap with inference.
  double predict_same_word_probability(const EncodedSequence& input) const;

  /// Batch-forward entry point: scores a micro-batch of encoded pair
  /// sequences with a stacked forward. Sequences are copied back to back
  /// into one [rows, hidden] block of up to kStackedRows rows (a longer
  /// sequence gets a block of its own), so each projection, FFN and
  /// LayerNorm is one GEMM or kernel call per layer per block; attention
  /// and GELU run per sequence. Every score is bit-identical to a
  /// one-sequence call on the same backend, whatever its neighbours.
  ///
  /// The "model.forward" fault site is checked once per sequence, all
  /// before any compute; the call throws runtime::InjectedFault if any
  /// check trips.
  std::vector<double> predict_same_word_probabilities(
      const std::vector<const EncodedSequence*>& batch) const;

  /// Row budget of one stacked block. Stacked scratch is about 3.6 KB per
  /// row per thread at the default sizes, so this bounds the arena growth
  /// a batch can cause.
  static constexpr int kStackedRows = 256;

  /// Class logits [1, num_classes] from the Tensor forward in eval mode
  /// (the training graph without dropout): the reference the stacked
  /// forward is tested against, and what eval_loss scores.
  tensor::Tensor eval_logits(const EncodedSequence& input) const;

  /// Training-mode forward + backward for one example. Returns the loss;
  /// accumulates gradients on all parameters.
  double train_step_accumulate(const EncodedSequence& input, int label);

  /// Loss without gradient accumulation (for eval).
  double eval_loss(const EncodedSequence& input, int label) const;

  /// All trainable parameters in a stable order.
  const std::vector<tensor::Parameter*>& parameters();

  std::int64_t num_parameters();

  void save(const std::string& path);
  void load(const std::string& path);

  /// RNG used for dropout; exposed so training runs are reproducible.
  util::Rng& dropout_rng() { return dropout_rng_; }

 private:
  struct ForwardCache;
  /// logits [1, num_classes]; fills cache when training. `dropout_rng`
  /// null means inference mode (no dropout, no RNG consumption — what
  /// makes const concurrent forwards sound).
  tensor::Tensor forward(const EncodedSequence& input,
                         util::Rng* dropout_rng, ForwardCache* cache) const;
  void backward(const tensor::Tensor& d_logits, const ForwardCache& cache);
  /// Stacked inference over inputs[0, count): out[s] = P(class 1).
  void forward_rows(const EncodedSequence* const* inputs, std::size_t count,
                    double* out) const;

  BertConfig config_;
  util::Rng init_rng_;
  util::Rng dropout_rng_;
  BertEmbeddings embeddings_;
  std::vector<EncoderLayer> layers_;
  tensor::Linear pooler_;
  tensor::Linear classifier_;
  std::vector<tensor::Parameter*> parameter_list_;
};

}  // namespace rebert::bert
