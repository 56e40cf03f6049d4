#include "ksym/minimal.h"

#include <algorithm>
#include <map>

#include "aut/isomorphism.h"
#include "graph/algorithms.h"

namespace ksym {
namespace {

// Returns the smallest legal copy unit for `cell`: one connected component
// of the cell-induced subgraph if all components are mutual L(V)-copies,
// otherwise the whole cell.
std::vector<VertexId> MinimalCopyUnit(const Graph& graph,
                                      const VertexPartition& partition,
                                      uint32_t cell) {
  const std::vector<VertexId>& members = partition.cells[cell];
  // Partition cells are sorted, so membership and member index both resolve
  // with one binary search — no per-cell associative container.
  KSYM_DCHECK(std::is_sorted(members.begin(), members.end()));
  const auto index_of = [&members](VertexId u) -> uint32_t {
    const auto it = std::lower_bound(members.begin(), members.end(), u);
    if (it == members.end() || *it != u) return static_cast<uint32_t>(-1);
    return static_cast<uint32_t>(it - members.begin());
  };

  // Components of G[cell].
  std::vector<uint32_t> comp(members.size(), static_cast<uint32_t>(-1));
  uint32_t num_comps = 0;
  std::vector<uint32_t> queue;
  for (uint32_t start = 0; start < members.size(); ++start) {
    if (comp[start] != static_cast<uint32_t>(-1)) continue;
    const uint32_t c = num_comps++;
    queue.clear();
    queue.push_back(start);
    comp[start] = c;
    size_t head = 0;
    while (head < queue.size()) {
      const uint32_t i = queue[head++];
      for (VertexId u : graph.Neighbors(members[i])) {
        const uint32_t j = index_of(u);
        if (j == static_cast<uint32_t>(-1)) continue;
        if (comp[j] == static_cast<uint32_t>(-1)) {
          comp[j] = c;
          queue.push_back(j);
        }
      }
    }
  }
  if (num_comps <= 1) return members;

  // L(V) colours from external neighbourhoods.
  std::map<std::vector<VertexId>, uint32_t> signature_color;
  std::vector<uint32_t> color(members.size());
  for (uint32_t i = 0; i < members.size(); ++i) {
    std::vector<VertexId> external;
    for (VertexId u : graph.Neighbors(members[i])) {
      if (partition.cell_of[u] != cell) external.push_back(u);
    }
    const auto [it, inserted] = signature_color.emplace(
        std::move(external), static_cast<uint32_t>(signature_color.size()));
    color[i] = it->second;
  }

  std::vector<std::vector<VertexId>> comp_members(num_comps);
  for (uint32_t i = 0; i < members.size(); ++i) {
    comp_members[comp[i]].push_back(members[i]);
  }
  auto component_colors = [&](const std::vector<VertexId>& vertices) {
    std::vector<uint32_t> colors;
    colors.reserve(vertices.size());
    for (VertexId v : vertices) colors.push_back(color[index_of(v)]);
    return colors;
  };

  const Graph rep_graph = InducedSubgraph(graph, comp_members[0]);
  const std::vector<uint32_t> rep_colors = component_colors(comp_members[0]);
  for (uint32_t c = 1; c < num_comps; ++c) {
    const Graph other = InducedSubgraph(graph, comp_members[c]);
    if (!AreIsomorphic(rep_graph, other, rep_colors,
                       component_colors(comp_members[c]))) {
      // Not all components are mutual copies; copying one of them would
      // break symmetry between the others. Fall back to the whole cell.
      return members;
    }
  }
  return comp_members[0];
}

CopyUnitChooser MinimalUnits(const Graph& graph) {
  return [&graph](const VertexPartition& initial, uint32_t cell) {
    return MinimalCopyUnit(graph, initial, cell);
  };
}

}  // namespace

Result<AnonymizationResult> AnonymizeMinimalVertices(
    const Graph& graph, const VertexPartition& initial,
    const AnonymizationOptions& options) {
  return AnonymizeInMemory(graph, &initial, options, MinimalUnits(graph));
}

Result<AnonymizationResult> AnonymizeMinimalVertices(
    const Graph& graph, const AnonymizationOptions& options) {
  return AnonymizeInMemory(graph, nullptr, options, MinimalUnits(graph));
}

}  // namespace ksym
