// Pairwise score matrix (§II-C/D, Fig. 1(d) input).
//
// score(i,j) = P(same word | bits i, j) from the model, or kFiltered (-1)
// when the Jaccard pre-filter rejects the pair. The matrix is symmetric
// with a kFiltered diagonal (self-pairs are never scored).
#pragma once

#include <functional>
#include <vector>

#include "bert/model.h"
#include "rebert/filter.h"
#include "rebert/prediction_cache.h"
#include "rebert/tokenizer.h"
#include "runtime/latch.h"
#include "runtime/thread_pool.h"
#include "util/page_mapping.h"

namespace rebert::core {

/// Scores stored per ordered pair of bit classes. Bits of one class are
/// scored alike (score_all_pairs puts bits with equal sequences in one
/// class), so cell (c, d) holds the score of every bit pair i < j with
/// class_of[i] = c and class_of[j] = d: O(U² + n) memory for n bits in U
/// classes. A cell that no bit pair occupies stays kFiltered.
class ScoreMatrix {
 public:
  static constexpr double kFiltered = -1.0;

  /// The dense form: every bit its own class, n x n cells — what the
  /// per-pair oracle build_score_matrix fills.
  explicit ScoreMatrix(int n);
  /// Bit i in class class_of[i], one of `classes`.
  ScoreMatrix(std::vector<int> class_of, int classes);

  int size() const { return static_cast<int>(class_of_.size()); }
  int num_classes() const { return classes_; }
  int class_of(int i) const;

  /// kFiltered when i == j.
  double at(int i, int j) const;
  /// Symmetric write of the cell of bit pair (i, j), i != j: every bit
  /// pair with the same ordered classes reads the new score.
  void set(int i, int j, double score);
  /// The cell of ordered class pair (c, d): at(i, j) for every i < j with
  /// classes (c, d).
  double class_score(int c, int d) const;

  /// Maximum entry off the diagonal; -1 when fully filtered.
  double max_score() const;

  /// Fraction of strict-upper-triangle bit pairs that were filtered.
  double filtered_fraction() const;

 private:
  std::vector<int> class_of_;
  int classes_;
  /// classes x classes values, row-major: 3 MB at b17's 631 classes, and
  /// the dense form's n x n reach 16 MB at 1,415 bits, so they take a
  /// mapping of their own (util/page_mapping.h).
  util::PageArray<double> values_;
};

/// Scores every pair with `scorer` unless the filter rejects it first.
/// `scorer(i, j)` is only invoked for surviving pairs.
ScoreMatrix build_score_matrix(
    const std::vector<BitSequence>& bits, const FilterOptions& filter,
    const std::function<double(int, int)>& scorer);

/// Scheduling knobs for score_all_pairs.
struct ScoringOptions {
  /// Worker threads; 1 = serial, 0 = resolve from REBERT_THREADS /
  /// hardware (runtime::resolve_thread_count).
  int num_threads = 1;
  /// Reuse an existing pool (e.g. the serve engine's) instead of spinning
  /// up a transient one. When null and more than one thread is resolved, a
  /// pool is created for the call.
  runtime::ThreadPool* pool = nullptr;
  /// Cooperative cancellation / deadline token, polled between loop
  /// indices (see runtime/parallel_for.h and score_all_pairs). When it
  /// fires mid-sweep the call throws runtime::CancelledError — how the
  /// serve engine bounds a recover request to its deadline_ms.
  runtime::CancellationToken* cancel = nullptr;
};

/// Score every candidate pair of `bits` — the O(bits²) hot path of the
/// whole pipeline — with the same result as build_score_matrix over an
/// encode_pair -> predict_same_word_probability scorer.
///
/// Leaf generalization makes many bits' sequences identical, so the work
/// is planned per sequence class (bits whose token ids and tree codes are
/// equal), and the matrix stores one score per ordered class pair (U x U
/// cells for U classes, not n x n). The Jaccard filter is decided once per
/// ordered class pair that occurs. One parallel_for then scores one
/// representative bit pair of every passing ordered class pair, taking
/// slots in chunks whose forwards share one batched model call; with the
/// cache off, that is one forward per passing class pair. With a cache,
/// each class pair is one lookup plus a bulk record of the hits its other
/// bit pairs stand for, so the counters keep their per-bit-pair meaning:
/// hits + misses is the number of filter survivors, and a cold cache
/// forwards each key exactly once.
///
/// Determinism: the output is bit-identical at any thread count, with the
/// cache on or off. Each class cell is written by exactly one body
/// invocation, the model is read-only during inference, a batched score
/// does not depend on its batch neighbours, and cache hits are lossless
/// (same key -> same score), so scheduling order cannot change a single
/// bit of the result. Enforced by tests/runtime/scoring_parallel_test.cc
/// at 1, 2, and 8 threads.
ScoreMatrix score_all_pairs(const std::vector<BitSequence>& bits,
                            const Tokenizer& tokenizer,
                            const FilterOptions& filter,
                            const bert::BertPairClassifier& model,
                            ShardedPredictionCache* cache = nullptr,
                            const ScoringOptions& options = {});

}  // namespace rebert::core
