#include "rebert/scoring.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <unordered_map>
#include <utility>

#include "runtime/parallel_for.h"
#include "runtime/threads.h"
#include "util/check.h"

namespace rebert::core {

ScoreMatrix::ScoreMatrix(int n) : n_(n) {
  REBERT_CHECK_MSG(n >= 1, "score matrix needs at least one bit");
  values_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                 kFiltered);
}

double ScoreMatrix::at(int i, int j) const {
  REBERT_CHECK(i >= 0 && i < n_ && j >= 0 && j < n_);
  return values_[static_cast<std::size_t>(i) * n_ + j];
}

const double* ScoreMatrix::row(int i) const {
  REBERT_CHECK(i >= 0 && i < n_);
  return values_.data() + static_cast<std::size_t>(i) * n_;
}

void ScoreMatrix::set(int i, int j, double score) {
  REBERT_CHECK(i >= 0 && i < n_ && j >= 0 && j < n_);
  values_[static_cast<std::size_t>(i) * n_ + j] = score;
  values_[static_cast<std::size_t>(j) * n_ + i] = score;
}

double ScoreMatrix::max_score() const {
  return *std::max_element(values_.begin(), values_.end());
}

double ScoreMatrix::filtered_fraction() const {
  if (n_ < 2) return 0.0;
  long long filtered = 0, total = 0;
  for (int i = 0; i < n_; ++i) {
    const double* scores = row(i);
    for (int j = i + 1; j < n_; ++j) {
      ++total;
      if (scores[j] == kFiltered) ++filtered;
    }
  }
  return static_cast<double>(filtered) / static_cast<double>(total);
}

ScoreMatrix build_score_matrix(
    const std::vector<BitSequence>& bits, const FilterOptions& filter,
    const std::function<double(int, int)>& scorer) {
  REBERT_CHECK(!bits.empty());
  ScoreMatrix matrix(static_cast<int>(bits.size()));
  for (int i = 0; i < matrix.size(); ++i) {
    for (int j = i + 1; j < matrix.size(); ++j) {
      if (!passes_filter(bits[static_cast<std::size_t>(i)],
                         bits[static_cast<std::size_t>(j)], filter))
        continue;  // stays kFiltered
      matrix.set(i, j, scorer(i, j));
    }
  }
  return matrix;
}

namespace {

using std::size_t;

/// The bits grouped into classes of exactly equal sequences (token ids and
/// tree codes), numbered by first bit: c < d implies first(c) < first(d).
struct SequenceClasses {
  std::vector<int> class_of;  // bit -> class
  std::vector<int> members;   // bits by class, ascending within a class
  std::vector<int> begin;     // class c owns members[begin[c], begin[c+1])

  int count() const { return static_cast<int>(begin.size()) - 1; }
  int size(int c) const {
    return begin[static_cast<size_t>(c) + 1] - begin[static_cast<size_t>(c)];
  }
  int first(int c) const {
    return members[static_cast<size_t>(begin[static_cast<size_t>(c)])];
  }
  int last(int c) const {
    return members[static_cast<size_t>(begin[static_cast<size_t>(c) + 1]) - 1];
  }

  /// True when some bit pair i < j has classes (c, d).
  bool occurs(int c, int d) const {
    return c == d ? size(c) >= 2 : first(c) < last(d);
  }

  /// The first bit of class d after bit i; (class_of[i], d) must occur.
  int next_after(int d, int i) const {
    const auto lo = members.begin() + begin[static_cast<size_t>(d)];
    return *std::upper_bound(lo, lo + size(d), i);
  }
};

SequenceClasses intern_sequences(const std::vector<BitSequence>& bits) {
  SequenceClasses classes;
  std::vector<int> first_bit, sizes;
  // The digest only picks the bucket; membership compares in full.
  std::unordered_map<std::uint64_t, std::vector<int>> buckets;
  for (size_t i = 0; i < bits.size(); ++i) {
    const BitSequence& seq = bits[i];
    std::vector<int>& bucket = buckets[hash_sequence(0x5eedULL, seq)];
    int c = -1;
    for (int candidate : bucket) {
      const BitSequence& other =
          bits[static_cast<size_t>(first_bit[static_cast<size_t>(candidate)])];
      if (other.token_ids == seq.token_ids &&
          other.tree_codes == seq.tree_codes) {
        c = candidate;
        break;
      }
    }
    if (c < 0) {
      c = static_cast<int>(first_bit.size());
      first_bit.push_back(static_cast<int>(i));
      sizes.push_back(0);
      bucket.push_back(c);
    }
    classes.class_of.push_back(c);
    ++sizes[static_cast<size_t>(c)];
  }
  classes.begin.assign(sizes.size() + 1, 0);
  for (size_t c = 0; c < sizes.size(); ++c)
    classes.begin[c + 1] = classes.begin[c] + sizes[c];
  std::vector<int> fill(classes.begin.begin(), classes.begin.end() - 1);
  classes.members.resize(bits.size());
  for (size_t i = 0; i < bits.size(); ++i)
    classes.members[static_cast<size_t>(
        fill[static_cast<size_t>(classes.class_of[i])]++)] =
        static_cast<int>(i);
  return classes;
}

/// The ordered class pairs that occur and pass the filter, as a U x U
/// bitset whose rows are whole words. Passing pairs are numbered in
/// row-major order ("slots"); phase 1 runs one index per slot.
struct PassTable {
  explicit PassTable(int classes)
      : words((static_cast<size_t>(classes) + 63) / 64),
        mask(static_cast<size_t>(classes) * words, 0),
        row_slot(static_cast<size_t>(classes) + 1, 0) {}

  std::uint64_t* row(int c) {
    return mask.data() + static_cast<size_t>(c) * words;
  }
  const std::uint64_t* row(int c) const {
    return mask.data() + static_cast<size_t>(c) * words;
  }
  static bool test(const std::uint64_t* row, int d) {
    return (row[d >> 6] >> (d & 63)) & 1U;
  }

  /// Fills row_slot from the mask; returns the number of slots.
  std::int64_t number_slots() {
    for (size_t c = 0; c + 1 < row_slot.size(); ++c) {
      std::int64_t count = 0;
      for (size_t w = 0; w < words; ++w)
        count += std::popcount(mask[c * words + w]);
      row_slot[c + 1] = row_slot[c] + count;
    }
    return row_slot.back();
  }

  /// The class pair (c, d) numbered `slot`.
  std::pair<int, int> pair_at(std::int64_t slot) const {
    const int c = static_cast<int>(std::upper_bound(row_slot.begin(),
                                                    row_slot.end(), slot) -
                                   row_slot.begin()) - 1;
    std::int64_t rank = slot - row_slot[static_cast<size_t>(c)];
    for (size_t w = 0;; ++w) {
      std::uint64_t word = row(c)[w];
      if (rank < std::popcount(word)) {
        for (; rank > 0; --rank) word &= word - 1;
        return {c, static_cast<int>(w * 64) + std::countr_zero(word)};
      }
      rank -= std::popcount(word);
    }
  }

  size_t words;
  std::vector<std::uint64_t> mask;
  std::vector<std::int64_t> row_slot;  // first slot of row c; back() = total
};

}  // namespace

ScoreMatrix score_all_pairs(const std::vector<BitSequence>& bits,
                            const Tokenizer& tokenizer,
                            const FilterOptions& filter,
                            const bert::BertPairClassifier& model,
                            ShardedPredictionCache* cache,
                            const ScoringOptions& options) {
  REBERT_CHECK(!bits.empty());
  const int n = static_cast<int>(bits.size());
  ScoreMatrix matrix(n);

  // Every loop below runs on one pool: the caller's, a transient one, or
  // none (serial). The calling thread participates in parallel_for, so a
  // transient pool needs one fewer worker to land on `threads` in total.
  const int threads = options.num_threads == 1
                          ? 1
                          : runtime::resolve_thread_count(options.num_threads);
  std::unique_ptr<runtime::ThreadPool> transient;
  runtime::ThreadPool* pool = options.pool;
  if (pool == nullptr && threads > 1) {
    transient = std::make_unique<runtime::ThreadPool>(threads - 1);
    pool = transient.get();
  }
  const auto run = [&](std::int64_t count,
                       const std::function<void(std::int64_t)>& body) {
    runtime::ParallelForOptions schedule;
    schedule.grain = 1;
    schedule.cancel = options.cancel;
    if (pool != nullptr)
      runtime::parallel_for(*pool, 0, count, body, schedule);
    else
      runtime::serial_for(0, count, body, schedule);
  };

  const SequenceClasses classes = intern_sequences(bits);
  const int u = classes.count();
  std::vector<TokenHistogram> histograms;
  for (int c = 0; c < u; ++c)
    histograms.push_back(
        token_histogram(bits[static_cast<size_t>(classes.first(c))].token_ids));

  // The filter, once per ordered class pair that occurs. Row c writes only
  // its own words.
  PassTable table(u);
  run(u, [&](std::int64_t row) {
    const int c = static_cast<int>(row);
    std::uint64_t* out = table.row(c);
    for (int d = 0; d < u; ++d)
      if (classes.occurs(c, d) &&
          passes_filter(histograms[static_cast<size_t>(c)],
                        histograms[static_cast<size_t>(d)], filter))
        out[d >> 6] |= std::uint64_t{1} << (d & 63);
  });
  const std::int64_t slots = table.number_slots();

  // The per-pair body: lookup -> encode -> forward -> insert.
  const auto score_pair = [&](int i, int j, std::uint64_t key) {
    double score = 0.0;
    if (cache == nullptr || !cache->lookup(key, &score)) {
      score = model.predict_same_word_probability(
          tokenizer.encode_pair(bits[static_cast<size_t>(i)],
                                bits[static_cast<size_t>(j)]));
      if (cache != nullptr) cache->insert(key, score);
    }
    matrix.set(i, j, score);
  };

  // With every sequence distinct, each class pair holds one bit pair, so
  // phase 2 has no work and no key has to outlive phase 1.
  const bool repeats = u < n;
  std::vector<std::uint64_t> keys(
      cache != nullptr && repeats ? static_cast<size_t>(slots) : 0);

  // Phase 1. The representative of class pair (c, d) is i = first(c) and
  // j = the first bit of d after i. Slot `slot` owns cell (i, j) and
  // keys[slot].
  run(slots, [&](std::int64_t slot) {
    const auto [c, d] = table.pair_at(slot);
    const int i = classes.first(c);
    const int j = classes.next_after(d, i);
    std::uint64_t key = 0;
    if (cache != nullptr) {
      key = PredictionCache::key_of(bits[static_cast<size_t>(i)],
                                    bits[static_cast<size_t>(j)]);
      if (!keys.empty()) keys[static_cast<size_t>(slot)] = key;
    }
    score_pair(i, j, key);
  });
  if (!repeats) return matrix;

  // Phase 2 scores the passing cells (i, j), j > i, that phase 1 did not.
  // With a cache, row_keys[d] is the key of (class of i, d).
  const auto walk_row = [&](int i, const std::uint64_t* row_keys) {
    const int c = classes.class_of[static_cast<size_t>(i)];
    const std::uint64_t* passing = table.row(c);
    // In the first row of class c, the first bit of each class d is the
    // representative phase 1 scored.
    std::vector<char> represented(classes.first(c) == i ? u : 0);
    for (int j = i + 1; j < n; ++j) {
      const int d = classes.class_of[static_cast<size_t>(j)];
      if (!PassTable::test(passing, d)) continue;
      if (!represented.empty() && !represented[static_cast<size_t>(d)]) {
        represented[static_cast<size_t>(d)] = 1;
        continue;
      }
      score_pair(i, j, row_keys != nullptr ? row_keys[d] : 0);
    }
  };
  if (cache == nullptr) {
    // Every pair forwards: one index per row balances the load.
    run(n, [&](std::int64_t row) { walk_row(static_cast<int>(row), nullptr); });
    return matrix;
  }
  // Every pair is a lookup, and all rows of a class look up the same keys:
  // one index walks all rows of one class, in order, so no two threads
  // look up the same key.
  run(u, [&](std::int64_t cls) {
    const int c = static_cast<int>(cls);
    std::vector<std::uint64_t> row_keys(static_cast<size_t>(u));
    auto key = keys.begin() + table.row_slot[static_cast<size_t>(c)];
    const std::uint64_t* passing = table.row(c);
    for (size_t w = 0; w < table.words; ++w)
      for (std::uint64_t m = passing[w]; m != 0; m &= m - 1)
        row_keys[w * 64 + static_cast<size_t>(std::countr_zero(m))] = *key++;
    for (int k = classes.begin[static_cast<size_t>(c)];
         k < classes.begin[static_cast<size_t>(c) + 1]; ++k)
      walk_row(classes.members[static_cast<size_t>(k)], row_keys.data());
  });
  return matrix;
}

}  // namespace rebert::core
