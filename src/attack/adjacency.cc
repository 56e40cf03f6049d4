#include "attack/adjacency.h"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "attack/intern.h"
#include "graph/graph.h"

namespace ksym {

StructuralMeasure AdjacencyMeasure(uint32_t ell) {
  return {"adjacency-l" + std::to_string(ell), [ell](const Graph& graph) {
            std::vector<std::vector<uint32_t>> keys(graph.NumVertices());
            std::vector<uint32_t> degrees;
            for (VertexId v = 0; v < graph.NumVertices(); ++v) {
              degrees.clear();
              for (VertexId u : graph.Neighbors(v)) {
                degrees.push_back(static_cast<uint32_t>(graph.Degree(u)));
              }
              // The adversary sees the ℓ most connected neighbours: keep
              // the largest ℓ degrees, descending.
              const size_t keep = std::min<size_t>(ell, degrees.size());
              std::partial_sort(degrees.begin(), degrees.begin() + keep,
                                degrees.end(), std::greater<uint32_t>());
              keys[v].assign(degrees.begin(), degrees.begin() + keep);
            }
            return attack_internal::InternLabels(std::move(keys));
          }};
}

}  // namespace ksym
