#include "router/hash_ring.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/fnv1a.h"

namespace rebert::router {

HashRing::HashRing(int vnodes) : vnodes_(vnodes) {
  REBERT_CHECK_MSG(vnodes >= 1, "hash ring needs at least 1 vnode");
}

std::uint64_t HashRing::hash(const std::string& text) {
  // FNV-1a over the bytes, then a full-avalanche finalizer (murmur3
  // fmix64). Raw FNV-1a barely mixes the trailing bytes of short keys —
  // bench names like "b03".."b13" land within ~2e-6 of each other on the
  // ring and a 2-backend ring then puts EVERY bench on one backend. The
  // finalizer decorrelates them.
  std::uint64_t h = util::fnv1a(text.data(), text.size());
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

void HashRing::add(const std::string& node, double weight) {
  REBERT_CHECK_MSG(!node.empty(), "hash ring member name must be non-empty");
  REBERT_CHECK_MSG(weight > 0.0 && std::isfinite(weight),
                   "hash ring weight must be finite and positive");
  if (members_.count(node) > 0) return;
  // Weight scales the virtual point count; the floor of 1 keeps even a
  // tiny-weight member addressable (a zero-point member would silently own
  // nothing while claiming membership).
  const int points = std::max(
      1, static_cast<int>(std::lround(weight * vnodes_)));
  for (int k = 0; k < points; ++k) {
    const std::uint64_t point = hash(node + "#" + std::to_string(k));
    // A 64-bit collision between distinct (node, k) pairs is vanishingly
    // rare; first-comer keeps the point so placement stays order-free for
    // all practical member sets.
    ring_.emplace(point, node);
  }
  // Remember the REQUESTED point count (not the deduped insert count):
  // remove() re-derives the same hash sequence from it.
  members_[node] = points;
}

void HashRing::remove(const std::string& node) {
  const auto member = members_.find(node);
  if (member == members_.end()) return;
  for (int k = 0; k < member->second; ++k) {
    const auto it = ring_.find(hash(node + "#" + std::to_string(k)));
    if (it != ring_.end() && it->second == node) ring_.erase(it);
  }
  members_.erase(member);
}

bool HashRing::contains(const std::string& node) const {
  return members_.count(node) > 0;
}

std::string HashRing::node_for(const std::string& key) const {
  if (ring_.empty()) return "";
  auto it = ring_.lower_bound(hash(key));
  if (it == ring_.end()) it = ring_.begin();  // wrap past the top
  return it->second;
}

std::vector<std::string> HashRing::owners(const std::string& key,
                                          int r) const {
  std::vector<std::string> found;
  if (ring_.empty() || r <= 0) return found;
  const std::size_t want =
      std::min(static_cast<std::size_t>(r), members_.size());
  found.reserve(want);
  // Walk clockwise from the key's point collecting distinct backends. The
  // walk visits each virtual point at most once (bounded by ring size);
  // `want <= members_` guarantees termination with exactly `want` names.
  auto it = ring_.lower_bound(hash(key));
  for (std::size_t visited = 0;
       found.size() < want && visited < ring_.size(); ++visited, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    if (std::find(found.begin(), found.end(), it->second) == found.end())
      found.push_back(it->second);
  }
  return found;
}

std::vector<std::string> HashRing::nodes() const {
  std::vector<std::string> names;
  names.reserve(members_.size());
  for (const auto& [name, points] : members_) names.push_back(name);
  return names;
}

int HashRing::points_of(const std::string& node) const {
  const auto it = members_.find(node);
  return it == members_.end() ? 0 : it->second;
}

}  // namespace rebert::router
