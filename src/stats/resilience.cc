#include "stats/resilience.h"

#include <algorithm>

#include "common/check.h"
#include "perm/union_find.h"

namespace ksym {

std::vector<std::pair<double, double>> ResilienceCurve(const Graph& graph,
                                                       size_t num_points,
                                                       double max_fraction) {
  std::vector<std::pair<double, double>> curve;
  const size_t n = graph.NumVertices();
  KSYM_CHECK(max_fraction >= 0.0 && max_fraction <= 1.0);
  if (n == 0 || num_points == 0) return curve;

  // Removal order: descending original degree.
  std::vector<VertexId> order(n);
  for (VertexId v = 0; v < n; ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&graph](VertexId a, VertexId b) {
    const size_t da = graph.Degree(a);
    const size_t db = graph.Degree(b);
    return da != db ? da > db : a < b;
  });

  // Point i removes the prefix order[0, removed_i), and removed_i never
  // decreases with i, so the survivor sets nest. Walk the points from the
  // last: add vertices back from order[n - 1] down, union each with its
  // neighbours already present, and read point i when exactly
  // order[removed_i, n) is present.
  curve.resize(num_points);
  UnionFind components(n);
  std::vector<bool> present(n, false);
  size_t largest = 0;
  size_t next = n;  // order[next, n) is present.
  for (size_t i = num_points; i-- > 0;) {
    const double fraction =
        num_points == 1 ? 0.0
                        : max_fraction * static_cast<double>(i) /
                              static_cast<double>(num_points - 1);
    const size_t removed =
        static_cast<size_t>(fraction * static_cast<double>(n));
    while (next > removed) {
      const VertexId v = order[--next];
      present[v] = true;
      for (VertexId w : graph.Neighbors(v)) {
        if (present[w]) components.Union(v, w);
      }
      largest = std::max(largest, components.SetSize(v));
    }
    curve[i] = {fraction,
                static_cast<double>(largest) / static_cast<double>(n)};
  }
  return curve;
}

}  // namespace ksym
