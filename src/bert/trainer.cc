#include "bert/trainer.h"

#include <numeric>

#include "tensor/graphcheck.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_utils.h"

namespace rebert::bert {

double evaluate_accuracy(BertPairClassifier& model,
                         const std::vector<LabeledExample>& examples) {
  REBERT_CHECK(!examples.empty());
  std::vector<const EncodedSequence*> batch;
  batch.reserve(examples.size());
  for (const LabeledExample& ex : examples) batch.push_back(&ex.sequence);
  const std::vector<double> scores =
      model.predict_same_word_probabilities(batch);
  int correct = 0;
  for (std::size_t k = 0; k < examples.size(); ++k) {
    const int predicted = scores[k] >= 0.5 ? 1 : 0;
    if (predicted == examples[k].label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(examples.size());
}

double evaluate_loss(BertPairClassifier& model,
                     const std::vector<LabeledExample>& examples) {
  REBERT_CHECK(!examples.empty());
  double total = 0.0;
  for (const LabeledExample& ex : examples)
    total += model.eval_loss(ex.sequence, ex.label);
  return total / static_cast<double>(examples.size());
}

namespace {

// Snapshot / restore of parameter values (for best-checkpoint restoring).
std::vector<tensor::Tensor> snapshot(BertPairClassifier& model) {
  std::vector<tensor::Tensor> values;
  values.reserve(model.parameters().size());
  for (const tensor::Parameter* p : model.parameters())
    values.push_back(p->value);
  return values;
}

void restore(BertPairClassifier& model,
             const std::vector<tensor::Tensor>& values) {
  const auto& params = model.parameters();
  REBERT_CHECK(params.size() == values.size());
  for (std::size_t i = 0; i < params.size(); ++i)
    params[i]->value = values[i];
}

}  // namespace

TrainResult train(BertPairClassifier& model,
                  const std::vector<LabeledExample>& examples,
                  const TrainOptions& options) {
  REBERT_CHECK_MSG(!examples.empty(), "no training examples");
  REBERT_CHECK(options.epochs >= 1 && options.batch_size >= 1);
  REBERT_CHECK_MSG(options.eval_fraction >= 0.0 &&
                       options.eval_fraction < 1.0,
                   "eval_fraction must be in [0, 1)");

  // Optional validation split (deterministic).
  std::vector<LabeledExample> train_set, eval_set;
  if (options.eval_fraction > 0.0) {
    std::vector<std::size_t> indices(examples.size());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    util::Rng split_rng(options.shuffle_seed ^ 0xe7a1ULL);
    split_rng.shuffle(indices);
    const std::size_t eval_count = std::max<std::size_t>(
        1, static_cast<std::size_t>(examples.size() *
                                    options.eval_fraction));
    REBERT_CHECK_MSG(eval_count < examples.size(),
                     "eval split leaves no training data");
    for (std::size_t i = 0; i < indices.size(); ++i)
      (i < eval_count ? eval_set : train_set)
          .push_back(examples[indices[i]]);
  } else {
    train_set = examples;
  }

  tensor::Adam::Options adam_options;
  adam_options.weight_decay = options.weight_decay;
  tensor::Adam optimizer(model.parameters(), adam_options);

  const int steps_per_epoch = static_cast<int>(
      (train_set.size() + options.batch_size - 1) / options.batch_size);
  const int total_steps = steps_per_epoch * options.epochs;
  const int warmup_steps = static_cast<int>(
      options.warmup_fraction * total_steps);
  const tensor::WarmupLinearSchedule schedule(options.learning_rate,
                                              warmup_steps, total_steps);

  std::vector<std::size_t> order(train_set.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng shuffle_rng(options.shuffle_seed);

  TrainResult result;
  std::vector<tensor::Tensor> best_values;
  int epochs_without_improvement = 0;
  int step = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    shuffle_rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t seen = 0;
    while (seen < order.size()) {
      const std::size_t batch_end =
          std::min(order.size(), seen + static_cast<std::size_t>(
                                            options.batch_size));
      int batch_count = 0;
      double batch_loss = 0.0;
      for (std::size_t i = seen; i < batch_end; ++i) {
        const LabeledExample& ex = train_set[order[i]];
        batch_loss += model.train_step_accumulate(ex.sequence, ex.label);
        ++batch_count;
      }
      epoch_loss += batch_loss;
      // Average the accumulated gradients over the batch.
      if (batch_count > 1) {
        const float inv = 1.0f / static_cast<float>(batch_count);
        for (tensor::Parameter* p : model.parameters())
          for (std::int64_t j = 0; j < p->grad.numel(); ++j) p->grad[j] *= inv;
      }
      if (options.clip_norm > 0.0)
        tensor::clip_gradients(model.parameters(), options.clip_norm);
      if (options.check_numerics) {
        // Cold-path tripwire: catch the step where non-finite values first
        // enter, instead of reporting "loss = nan" epochs later.
        tensor::NumericTripwire tripwire;
        tripwire.set_step(step);
        tripwire.observe_scalar("batch loss", batch_loss);
        for (const tensor::Parameter* p : model.parameters())
          tripwire.observe(p->name + ".grad", p->grad);
        REBERT_CHECK_MSG(!tripwire.tripped(),
                         "numeric tripwire before optimizer step — "
                             << tripwire.first_trip());
      }
      optimizer.step(schedule.lr(step));
      if (options.check_numerics) {
        tensor::NumericTripwire tripwire;
        tripwire.set_step(step);
        for (const tensor::Parameter* p : model.parameters())
          tripwire.observe(p->name, p->value);
        REBERT_CHECK_MSG(!tripwire.tripped(),
                         "numeric tripwire after optimizer step — "
                             << tripwire.first_trip());
      }
      ++step;
      seen = batch_end;
    }
    EpochStats stats;
    stats.mean_loss = epoch_loss / static_cast<double>(train_set.size());
    stats.accuracy = evaluate_accuracy(model, train_set);
    if (!eval_set.empty()) {
      stats.eval_loss = evaluate_loss(model, eval_set);
      if (result.best_epoch < 0 || stats.eval_loss < result.best_eval_loss) {
        result.best_epoch = epoch;
        result.best_eval_loss = stats.eval_loss;
        best_values = snapshot(model);
        epochs_without_improvement = 0;
      } else {
        ++epochs_without_improvement;
      }
    }
    result.epochs.push_back(stats);
    if (options.verbose) {
      LOG_INFO << "epoch " << (epoch + 1) << "/" << options.epochs
               << " loss=" << util::format_double(stats.mean_loss, 4)
               << " acc=" << util::format_double(stats.accuracy, 4)
               << (eval_set.empty()
                       ? ""
                       : " eval=" +
                             util::format_double(stats.eval_loss, 4));
    }
    if (!eval_set.empty() && options.early_stop_patience > 0 &&
        epochs_without_improvement >= options.early_stop_patience) {
      result.stopped_early = true;
      break;
    }
  }
  if (!best_values.empty()) restore(model, best_values);
  result.final_train_accuracy = evaluate_accuracy(model, train_set);
  return result;
}

}  // namespace rebert::bert
