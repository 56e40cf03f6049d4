#include "ksym/backbone.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "aut/isomorphism.h"
#include "graph/algorithms.h"

namespace ksym {
namespace {

// One connected component of a cell-induced subgraph, extracted with its
// L(V) colours (colour = id of the member's external neighbourhood).
struct CellComponent {
  std::vector<VertexId> members;  // Sorted original vertex ids.
  Graph subgraph;                 // Induced on `members`.
  std::vector<uint32_t> colors;   // External-neighbourhood colour per member.

  // Cheap isomorphism-invariant grouping key.
  using Key = std::tuple<size_t, size_t, std::vector<std::pair<uint32_t, uint32_t>>>;
  Key InvariantKey() const {
    std::vector<std::pair<uint32_t, uint32_t>> profile;
    profile.reserve(members.size());
    for (VertexId i = 0; i < subgraph.NumVertices(); ++i) {
      profile.emplace_back(colors[i],
                           static_cast<uint32_t>(subgraph.Degree(i)));
    }
    std::sort(profile.begin(), profile.end());
    return {subgraph.NumVertices(), subgraph.NumEdges(), std::move(profile)};
  }
};

}  // namespace

BackboneResult ComputeBackbone(const Graph& graph,
                               const VertexPartition& partition,
                               const ExecutionContext* context) {
  ScopedPhaseTimer timer(context, &RefinementStats::backbone_seconds);
  const size_t n = graph.NumVertices();
  KSYM_CHECK(partition.cell_of.size() == n);

  BackboneResult result;
  std::vector<bool> alive(n, true);

  // Scratch reused across cells and sweeps: member index (flat, reset only
  // at touched entries), BFS queue, and the subgraph extractor's remap.
  std::vector<uint32_t> index_of(n, static_cast<uint32_t>(-1));
  std::vector<uint32_t> queue;
  std::vector<VertexId> members;
  SubgraphExtractor extractor(graph);

  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t cell = 0; cell < partition.cells.size(); ++cell) {
      members.clear();
      for (VertexId v : partition.cells[cell]) {
        if (alive[v]) members.push_back(v);
      }
      if (members.size() <= 1) continue;

      // Index of each member within `members`.
      for (uint32_t i = 0; i < members.size(); ++i) {
        index_of[members[i]] = i;
      }

      // L(V) colours: one colour per distinct alive external neighbourhood.
      std::map<std::vector<VertexId>, uint32_t> signature_color;
      std::vector<uint32_t> color(members.size());
      for (uint32_t i = 0; i < members.size(); ++i) {
        std::vector<VertexId> external;
        for (VertexId u : graph.Neighbors(members[i])) {
          if (alive[u] && partition.cell_of[u] != cell) external.push_back(u);
        }
        const auto [it, inserted] = signature_color.emplace(
            std::move(external),
            static_cast<uint32_t>(signature_color.size()));
        color[i] = it->second;
      }

      // Connected components of the cell-induced subgraph (alive members).
      std::vector<uint32_t> comp(members.size(), static_cast<uint32_t>(-1));
      uint32_t num_comps = 0;
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
            if (!alive[u] || partition.cell_of[u] != cell) continue;
            const uint32_t j = index_of[u];
            KSYM_DCHECK(j != static_cast<uint32_t>(-1));
            if (comp[j] == static_cast<uint32_t>(-1)) {
              comp[j] = c;
              queue.push_back(j);
            }
          }
        }
      }
      if (num_comps <= 1) {
        for (VertexId v : members) index_of[v] = static_cast<uint32_t>(-1);
        continue;
      }

      // Extract components (in order of minimum member, which keeps the
      // lowest-id — typically original — component as the representative).
      std::vector<CellComponent> components(num_comps);
      for (uint32_t i = 0; i < members.size(); ++i) {
        components[comp[i]].members.push_back(members[i]);
      }
      for (CellComponent& component : components) {
        component.subgraph = extractor.Extract(component.members);
        component.colors.resize(component.members.size());
        for (size_t i = 0; i < component.members.size(); ++i) {
          component.colors[i] = color[index_of[component.members[i]]];
        }
      }
      for (VertexId v : members) index_of[v] = static_cast<uint32_t>(-1);
      std::sort(components.begin(), components.end(),
                [](const CellComponent& a, const CellComponent& b) {
                  return a.members.front() < b.members.front();
                });

      // Keep one representative per colour-isomorphism class; remove the
      // rest (they are orbit-copies). A component of at most three
      // vertices is a colour-preserving copy of any component with its
      // key: one vertex is decided by its colour, two by their colour
      // pair, P3 by its centre's colour (the degree-2 entry) and its
      // leaves', and K3 by its colour multiset. Four vertices are not:
      // the paths a-b-c-d and a-c-b-d share a key.
      std::map<CellComponent::Key, std::vector<const CellComponent*>> reps;
      for (const CellComponent& component : components) {
        auto& bucket = reps[component.InvariantKey()];
        bool is_copy = false;
        if (component.members.size() <= 3) {
          is_copy = !bucket.empty();
        } else {
          for (const CellComponent* rep : bucket) {
            if (AreIsomorphic(component.subgraph, rep->subgraph,
                              component.colors, rep->colors)) {
              is_copy = true;
              break;
            }
          }
        }
        if (is_copy) {
          for (VertexId v : component.members) alive[v] = false;
          result.removed_vertices += component.members.size();
          ++result.reduction_operations;
          changed = true;
        } else {
          bucket.push_back(&component);
        }
      }
    }
  }

  // Compact the surviving vertices into the backbone graph + partition.
  for (VertexId v = 0; v < n; ++v) {
    if (alive[v]) result.kept.push_back(v);
  }
  result.graph = extractor.Extract(result.kept);
  std::vector<VertexId> to_new(n, kInvalidVertex);
  for (size_t i = 0; i < result.kept.size(); ++i) {
    to_new[result.kept[i]] = static_cast<VertexId>(i);
  }
  std::vector<std::vector<VertexId>> new_cells;
  for (const auto& cell : partition.cells) {
    std::vector<VertexId> new_cell;
    for (VertexId v : cell) {
      if (alive[v]) new_cell.push_back(to_new[v]);
    }
    if (!new_cell.empty()) new_cells.push_back(std::move(new_cell));
  }
  result.partition =
      VertexPartition::FromCells(result.kept.size(), std::move(new_cells));
  return result;
}

}  // namespace ksym
