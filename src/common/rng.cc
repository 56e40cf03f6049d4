#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace ksym {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  KSYM_DCHECK(bound > 0);
  // Lemire's method: multiply-shift with a rejection step to remove bias.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    const uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  KSYM_DCHECK(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range [INT64_MIN, INT64_MAX].
  if (span == 0) return static_cast<int64_t>(Next());
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

size_t Rng::NextDiscrete(const std::vector<double>& weights) {
  KSYM_DCHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    KSYM_DCHECK(w >= 0.0);
    total += w;
  }
  KSYM_CHECK(total > 0.0);
  double r = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  // Floating-point slack: fall back to the last positive-weight index.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size() - 1;
}

DiscreteSumTree::DiscreteSumTree(const std::vector<double>& weights)
    : leaves_(std::bit_ceil(std::max<size_t>(weights.size(), 1))),
      nodes_(2 * leaves_, 0.0) {
  for (size_t i = 0; i < weights.size(); ++i) {
    KSYM_DCHECK(std::isfinite(weights[i]) && weights[i] >= 0.0);
    nodes_[leaves_ + i] = weights[i];
  }
  for (size_t node = leaves_; node-- > 1;) {
    nodes_[node] = nodes_[2 * node] + nodes_[2 * node + 1];
  }
}

void DiscreteSumTree::Remove(size_t i) {
  KSYM_DCHECK(i < leaves_);
  size_t node = leaves_ + i;
  nodes_[node] = 0.0;
  for (node /= 2; node > 0; node /= 2) {
    nodes_[node] = nodes_[2 * node] + nodes_[2 * node + 1];
  }
}

size_t DiscreteSumTree::Draw(Rng& rng) const {
  KSYM_CHECK(Total() > 0.0);
  double r = rng.NextDouble() * Total();
  size_t node = 1;
  while (node < leaves_) {
    node *= 2;  // Left, unless r is past it and the right subtree has weight.
    if (r >= nodes_[node] && nodes_[node + 1] > 0.0) {
      r -= nodes_[node];
      ++node;
    }
  }
  return node - leaves_;
}

Rng Rng::Fork() { return Rng(Next() ^ 0xD6E8FEB86659FD93ull); }

Rng Rng::Fork(uint64_t index) const {
  // Fold the full 256-bit state and the index through SplitMix64 so child
  // streams differ in all state words even for adjacent indices. The parent
  // state is read-only: the result is a pure function of (state, index).
  uint64_t sm = s_[0] ^ (index + 0x9E3779B97F4A7C15ull);
  uint64_t seed = SplitMix64(sm);
  sm ^= s_[1];
  seed ^= SplitMix64(sm);
  sm ^= s_[2];
  seed ^= SplitMix64(sm);
  sm ^= s_[3];
  seed ^= SplitMix64(sm);
  return Rng(seed);
}

}  // namespace ksym
