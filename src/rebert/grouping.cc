#include "rebert/grouping.h"

#include <algorithm>

#include "util/check.h"

namespace rebert::core {

UnionFind::UnionFind(int n)
    : parent_(static_cast<std::size_t>(n)),
      rank_(static_cast<std::size_t>(n), 0) {
  REBERT_CHECK(n >= 0);
  for (int i = 0; i < n; ++i) parent_[static_cast<std::size_t>(i)] = i;
}

int UnionFind::find(int x) {
  REBERT_CHECK(x >= 0 && x < static_cast<int>(parent_.size()));
  int root = x;
  while (parent_[static_cast<std::size_t>(root)] != root)
    root = parent_[static_cast<std::size_t>(root)];
  while (parent_[static_cast<std::size_t>(x)] != root) {
    const int next = parent_[static_cast<std::size_t>(x)];
    parent_[static_cast<std::size_t>(x)] = root;
    x = next;
  }
  return root;
}

void UnionFind::unite(int a, int b) {
  int ra = find(a), rb = find(b);
  if (ra == rb) return;
  if (rank_[static_cast<std::size_t>(ra)] <
      rank_[static_cast<std::size_t>(rb)])
    std::swap(ra, rb);
  parent_[static_cast<std::size_t>(rb)] = ra;
  if (rank_[static_cast<std::size_t>(ra)] ==
      rank_[static_cast<std::size_t>(rb)])
    ++rank_[static_cast<std::size_t>(ra)];
}

std::vector<int> UnionFind::labels() {
  std::vector<int> out(parent_.size(), -1);
  std::vector<int> root_label(parent_.size(), -1);
  int next = 0;
  for (int i = 0; i < static_cast<int>(parent_.size()); ++i) {
    const int root = find(i);
    if (root_label[static_cast<std::size_t>(root)] < 0)
      root_label[static_cast<std::size_t>(root)] = next++;
    out[static_cast<std::size_t>(i)] =
        root_label[static_cast<std::size_t>(root)];
  }
  return out;
}

std::vector<int> group_words(const ScoreMatrix& scores,
                             const GroupingOptions& options) {
  REBERT_CHECK_MSG(options.threshold_factor > 0.0 &&
                       options.threshold_factor < 1.0,
                   "threshold factor must be in (0,1)");
  const int n = scores.size();
  const int u = scores.num_classes();
  UnionFind uf(n);
  const double max_score = scores.max_score();
  if (max_score <= 0.0) return uf.labels();
  const double threshold = max_score * options.threshold_factor;

  // The bit pairs i < j of an above-threshold class pair (c, d) are edges.
  // first(c) < every such j and last(d) > every such i, so they join one
  // component: first(c), last(d), the members of c below last(d) and the
  // members of d above first(c). No other member of c or d has an edge.
  // (For c = d that is all of c.) Per class, it suffices to keep the
  // widest reach: the highest last(d) and the lowest first(c).
  std::vector<int> first(static_cast<std::size_t>(u), -1);
  std::vector<int> last(static_cast<std::size_t>(u), -1);
  for (int i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(scores.class_of(i));
    if (first[c] < 0) first[c] = i;
    last[c] = i;
  }
  std::vector<int> up_to(static_cast<std::size_t>(u), -1);   // joins first(c)
  std::vector<int> down_to(static_cast<std::size_t>(u), n);  // joins last(d)
  for (int c = 0; c < u; ++c) {
    for (int d = 0; d < u; ++d) {
      if (!(scores.class_score(c, d) > threshold)) continue;
      const int fc = first[static_cast<std::size_t>(c)];
      const int ld = last[static_cast<std::size_t>(d)];
      uf.unite(fc, ld);
      up_to[static_cast<std::size_t>(c)] =
          std::max(up_to[static_cast<std::size_t>(c)], ld);
      down_to[static_cast<std::size_t>(d)] =
          std::min(down_to[static_cast<std::size_t>(d)], fc);
    }
  }
  for (int i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(scores.class_of(i));
    if (i < up_to[c]) uf.unite(i, first[c]);
    if (i > down_to[c]) uf.unite(i, last[c]);
  }
  return uf.labels();
}

}  // namespace rebert::core
