// Deterministic pseudo-random number generation.
//
// All randomized components in ksym (generators, sampling, perturbation)
// take an explicit 64-bit seed so that experiments are reproducible. The
// engine is xoshiro256** seeded via SplitMix64, which is fast, has a 256-bit
// state, and passes BigCrush; it is *not* cryptographically secure.

#ifndef KSYM_COMMON_RNG_H_
#define KSYM_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace ksym {

/// SplitMix64 step: used for seeding and as a cheap standalone mixer.
uint64_t SplitMix64(uint64_t& state);

/// Deterministic seeded PRNG (xoshiro256**). Satisfies the C++
/// UniformRandomBitGenerator concept so it can drive <random> distributions,
/// though the convenience members below cover everything ksym needs.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed);

  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~uint64_t{0}; }

  /// Next raw 64 random bits.
  uint64_t operator()() { return Next(); }
  uint64_t Next();

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  /// nearly-divisionless unbiased method.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Index in [0, weights.size()) drawn with probability proportional to
  /// weights[i]. Weights must be non-negative with a positive sum.
  size_t NextDiscrete(const std::vector<double>& weights);

  /// Fisher-Yates shuffles [first, last) of any random-access container.
  template <typename It>
  void Shuffle(It first, It last) {
    const auto n = static_cast<uint64_t>(last - first);
    for (uint64_t i = n; i > 1; --i) {
      const uint64_t j = NextBounded(i);
      using std::swap;
      swap(first[i - 1], first[j]);
    }
  }

  /// Derives an independent child generator; used to give sub-tasks their
  /// own streams without correlating them. Advances this generator.
  Rng Fork();

  /// Stream split: derives the `index`-th child generator from the current
  /// state *without* advancing it, so Fork(i) and Fork(j) can be taken in
  /// any order (or concurrently from different shards reading the same
  /// parent) and always yield the same pair of streams. This is the seeding
  /// primitive of the parallel evaluation engine: per-sample / per-shard
  /// streams depend only on (parent state, index), never on scheduling.
  Rng Fork(uint64_t index) const;

 private:
  uint64_t s_[4];
};

/// Weighted draws over indices that drop out one by one: a sum tree, O(n)
/// to build and O(log n) per draw and per removal, where NextDiscrete
/// rescans every weight. Leaf i holds weights[i] until Remove(i) zeroes it;
/// every internal node is recomputed as left + right, never updated by
/// subtraction, so a subtree with nothing left reads exactly 0 and a draw
/// never returns a zero-weight or removed index. A draw consumes one
/// NextDouble and returns the index that NextDiscrete returns over the
/// current weights, unless the draw lands within rounding error of a
/// boundary between two indices, where the tree's pairwise sums and the
/// scan's running sum may disagree.
class DiscreteSumTree {
 public:
  /// Weights must be finite and non-negative.
  explicit DiscreteSumTree(const std::vector<double>& weights);

  /// Sum of the weights not removed; draws require it to be positive.
  double Total() const { return nodes_[1]; }

  /// Sets index i's weight to 0 for every later draw.
  void Remove(size_t i);

  /// Index in [0, weights.size()) drawn with probability proportional to
  /// its current weight. A rounding overshoot ends at the last index with
  /// a positive weight, where NextDiscrete's scan falls back to.
  size_t Draw(Rng& rng) const;

 private:
  size_t leaves_;  // A power of two >= weights.size().
  // nodes_[1] is the root, node j's children are 2j and 2j + 1, and leaf i
  // is nodes_[leaves_ + i]; leaves past weights.size() hold 0.
  std::vector<double> nodes_;
};

}  // namespace ksym

#endif  // KSYM_COMMON_RNG_H_
