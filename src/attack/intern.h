// Key interning shared by the adversary models.
//
// Every structural measure reduces a vertex to some comparable key and then
// replaces keys with dense labels (equal label <=> equal key). Keeping the
// interning in one place guarantees every model reports collision-free
// labels the same way: keys are computed into index-addressed slots (in
// parallel only by NeighborhoodMeasure), then interned *sequentially* in
// vertex order, so the label stream is bit-identical for any thread count.

#ifndef KSYM_ATTACK_INTERN_H_
#define KSYM_ATTACK_INTERN_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace ksym {
namespace attack_internal {

/// Interns arbitrary comparable keys into dense labels (first occurrence in
/// index order gets the next label).
template <typename Key>
std::vector<uint32_t> InternLabels(std::vector<Key> keys) {
  std::map<Key, uint32_t> table;
  std::vector<uint32_t> labels(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto [it, inserted] =
        table.emplace(std::move(keys[i]), static_cast<uint32_t>(table.size()));
    labels[i] = it->second;
  }
  return labels;
}

}  // namespace attack_internal
}  // namespace ksym

#endif  // KSYM_ATTACK_INTERN_H_
