#include "rebert/filter.h"

#include <algorithm>

namespace rebert::core {

TokenHistogram token_histogram(const std::vector<int>& token_ids) {
  // A cone holds a handful of distinct gate tokens, so inserting into a
  // small sorted vector beats sorting a copy of the sequence.
  TokenHistogram histogram;
  histogram.reserve(std::min<std::size_t>(token_ids.size(), 16));
  for (int token : token_ids) {
    auto it = std::lower_bound(histogram.begin(), histogram.end(), token,
                               [](const std::pair<int, int>& entry, int t) {
                                 return entry.first < t;
                               });
    if (it == histogram.end() || it->first != token)
      it = histogram.insert(it, {token, 0});
    ++it->second;
  }
  return histogram;
}

double histogram_jaccard(const TokenHistogram& a, const TokenHistogram& b) {
  long long intersection = 0, uni = 0;
  std::size_t x = 0, y = 0;
  while (x < a.size() && y < b.size()) {
    if (a[x].first < b[y].first) {
      uni += a[x++].second;
    } else if (b[y].first < a[x].first) {
      uni += b[y++].second;
    } else {
      intersection += std::min(a[x].second, b[y].second);
      uni += std::max(a[x].second, b[y].second);
      ++x;
      ++y;
    }
  }
  for (; x < a.size(); ++x) uni += a[x].second;
  for (; y < b.size(); ++y) uni += b[y].second;
  return uni == 0 ? 1.0
                  : static_cast<double>(intersection) /
                        static_cast<double>(uni);
}

double jaccard_similarity(const std::vector<int>& a,
                          const std::vector<int>& b) {
  return histogram_jaccard(token_histogram(a), token_histogram(b));
}

bool passes_filter(const TokenHistogram& a, const TokenHistogram& b,
                   const FilterOptions& options) {
  return !options.enabled || histogram_jaccard(a, b) >= options.threshold;
}

bool passes_filter(const BitSequence& a, const BitSequence& b,
                   const FilterOptions& options) {
  if (!options.enabled) return true;
  return passes_filter(token_histogram(a.token_ids),
                       token_histogram(b.token_ids), options);
}

}  // namespace rebert::core
