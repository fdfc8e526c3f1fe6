// Jaccard pre-filter (§II-C).
//
// Before invoking the model, ReBERT discards pairs whose token sequences
// are too dissimilar: pairs with Jaccard similarity below 0.7 get score -1.
// With the generalized 'X' leaves the token *set* is tiny, so we use the
// bag (multiset) Jaccard — sum of per-token min counts over sum of max
// counts — which preserves the intended behaviour (similar gate-type
// compositions pass; different compositions are cut).
#pragma once

#include <utility>
#include <vector>

#include "rebert/tokenizer.h"

namespace rebert::core {

struct FilterOptions {
  double threshold = 0.7;  // the paper's cut-off
  bool enabled = true;
};

/// A token bag as (token id, count) pairs sorted by token id — the form
/// every Jaccard computation runs on. Build it once per distinct sequence
/// and reuse it across pairs (score_all_pairs does, per sequence class).
using TokenHistogram = std::vector<std::pair<int, int>>;

TokenHistogram token_histogram(const std::vector<int>& token_ids);

/// Bag Jaccard of two histograms in [0, 1]: a merge over the sorted token
/// ids, as integer intersection / integer union. Both empty -> 1.
double histogram_jaccard(const TokenHistogram& a, const TokenHistogram& b);

/// Bag Jaccard over two token-id sequences in [0, 1]. Both empty -> 1.
double jaccard_similarity(const std::vector<int>& a,
                          const std::vector<int>& b);

/// True when the pair should be scored by the model (similarity >=
/// threshold), false when it should be filtered to score -1.
bool passes_filter(const TokenHistogram& a, const TokenHistogram& b,
                   const FilterOptions& options);
bool passes_filter(const BitSequence& a, const BitSequence& b,
                   const FilterOptions& options);

}  // namespace rebert::core
