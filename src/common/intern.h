// Key interning, library-wide: the structural measures of the adversary
// models and the L(V)-copy test (ksym/backbone.h) reduce items to
// comparable keys and replace them with dense labels (equal label <=>
// equal key). Keys are computed into index-addressed slots (in parallel
// only by NeighborhoodMeasure), then interned *sequentially* in index
// order, so the label stream is bit-identical for any thread count.
//
// Interning hashes each key once into an open-addressing table of
// first-occurrence indices and compares it only with the keys on its probe
// run, so it costs an expected O(total key length) rather than a tree's
// O(n log n) whole-key comparisons. The hash never reaches a label: labels
// depend only on which keys are equal and where each first occurs.

#ifndef KSYM_COMMON_INTERN_H_
#define KSYM_COMMON_INTERN_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace ksym {

// Folds a key of the types callers intern (integers, and vectors and
// pairs of them) into a running hash, element by element.
inline uint64_t FoldKey(uint64_t hash, uint64_t key) {
  return HashCombine(hash, key);
}

template <typename T>
uint64_t FoldKey(uint64_t hash, const std::vector<T>& key) {
  hash = HashCombine(hash, key.size());
  for (const T& element : key) hash = FoldKey(hash, element);
  return hash;
}

template <typename A, typename B>
uint64_t FoldKey(uint64_t hash, const std::pair<A, B>& key) {
  return FoldKey(FoldKey(hash, key.first), key.second);
}

/// Interns keys into dense labels (first occurrence in index order gets
/// the next label).
template <typename Key>
std::vector<uint32_t> InternLabels(std::vector<Key> keys) {
  constexpr uint32_t kEmpty = ~uint32_t{0};
  // At most half full, so a probe run stays short.
  const size_t mask = std::bit_ceil(2 * keys.size() + 1) - 1;
  std::vector<uint32_t> first_index(mask + 1, kEmpty);
  std::vector<uint32_t> labels(keys.size());
  uint32_t next_label = 0;
  for (uint32_t i = 0; i < keys.size(); ++i) {
    for (size_t slot = FoldKey(0, keys[i]) & mask;; slot = (slot + 1) & mask) {
      const uint32_t first = first_index[slot];
      if (first == kEmpty) {
        first_index[slot] = i;
        labels[i] = next_label++;
        break;
      }
      if (keys[first] == keys[i]) {
        labels[i] = labels[first];
        break;
      }
    }
  }
  return labels;
}

}  // namespace ksym

#endif  // KSYM_COMMON_INTERN_H_
