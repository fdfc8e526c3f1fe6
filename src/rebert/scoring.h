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

class ScoreMatrix {
 public:
  static constexpr double kFiltered = -1.0;

  explicit ScoreMatrix(int n);

  int size() const { return n_; }
  double at(int i, int j) const;
  /// Row i as n contiguous scores — for full sweeps that would otherwise
  /// pay a bounds check per cell through at().
  const double* row(int i) const;
  void set(int i, int j, double score);  // symmetric write

  /// Maximum entry (filtered cells included as -1); -1 when fully filtered.
  double max_score() const;

  /// Fraction of strict-upper-triangle pairs that were filtered.
  double filtered_fraction() const;

 private:
  int n_;
  /// n x n values, row-major: 16 MB at 1,415 bits, so they take a mapping
  /// of their own (util/page_mapping.h).
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
/// equal): the Jaccard filter is decided once per ordered class pair, and
/// with a cache, the key once per passing ordered class pair. Scoring then
/// runs in two parallel_for phases on one pool. Phase 1 scores one
/// representative bit pair of every passing ordered class pair, taking
/// slots in chunks whose cache misses share one batched model call. Phase
/// 2 walks the rest of the upper triangle row by row: one index per row
/// without a cache, its forwards batched within the row, and with one, one
/// index per class that walks the rows of that class (they look up the
/// same keys, all of them hits). Every filter survivor is looked up in the
/// cache exactly once, and a cold cache forwards each key exactly once.
///
/// Determinism: the output is bit-identical at any thread count, with the
/// cache on or off. Each matrix cell (i, j)/(j, i), i < j, is written by
/// exactly one body invocation — one phase-1 index or the phase-2 index
/// that walks row i — the model is read-only during inference, a batched
/// score does not depend on its batch neighbours, and cache hits are
/// lossless (same key -> same score), so scheduling order cannot change a
/// single bit of the result. Enforced by
/// tests/runtime/scoring_parallel_test.cc at 1, 2, and 8 threads.
ScoreMatrix score_all_pairs(const std::vector<BitSequence>& bits,
                            const Tokenizer& tokenizer,
                            const FilterOptions& filter,
                            const bert::BertPairClassifier& model,
                            ShardedPredictionCache* cache = nullptr,
                            const ScoringOptions& options = {});

}  // namespace rebert::core
