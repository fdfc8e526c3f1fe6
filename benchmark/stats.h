// The one statistics helper of the benchmark: median, the highest
// percentile that still has at least ten samples beyond it, and the sample
// count. Every timing the benchmark reports goes through summarize().
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace rebert::e2e {

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  /// Value at tail_q (nearest rank). With fewer than 20 samples no
  /// percentile has ten samples beyond it; the tail is then the maximum and
  /// tail_q is 1.
  double tail = 0.0;
  double tail_q = 1.0;
};

inline Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = s.n / 2;
  s.median = s.n % 2 ? samples[mid] : 0.5 * (samples[mid - 1] + samples[mid]);
  s.tail = samples.back();
  s.tail_q = 1.0;
  for (double q : {0.9999, 0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    const double n = static_cast<double>(s.n);
    if (std::floor(n * (1.0 - q)) >= 10.0) {
      // Nearest rank: the ceil(q * n)-th smallest sample.
      s.tail = samples[static_cast<std::size_t>(std::ceil(q * n - 1e-9)) - 1];
      s.tail_q = q;
      break;
    }
  }
  return s;
}

}  // namespace rebert::e2e
