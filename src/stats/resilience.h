// Network resilience under targeted attack (Albert, Jeong & Barabasi 2000),
// the fourth utility measure of Section 4.3: the fraction of vertices in
// the largest connected component as vertices are removed in descending
// degree order.

#ifndef KSYM_STATS_RESILIENCE_H_
#define KSYM_STATS_RESILIENCE_H_

#include <utility>
#include <vector>

#include "graph/graph.h"

namespace ksym {

/// Points (fraction_removed, |LCC| / |V|) for `num_points` evenly spaced
/// removal fractions in [0, max_fraction] (max_fraction in [0, 1]).
/// Vertices are removed in descending order of their original degree (ties
/// by id). The removed sets nest, so one reverse sweep computes every
/// point: vertices return in reverse removal order into a union-find that
/// tracks the largest component, in O(n log n + m α(n)) for the whole
/// curve.
std::vector<std::pair<double, double>> ResilienceCurve(
    const Graph& graph, size_t num_points = 21, double max_fraction = 0.6);

}  // namespace ksym

#endif  // KSYM_STATS_RESILIENCE_H_
