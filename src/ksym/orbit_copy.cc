#include "ksym/orbit_copy.h"

#include <algorithm>

#include "shard/sharded_graph.h"

namespace ksym {

template <typename Base>
std::vector<VertexId> OrbitCopy(const Base& base, ReleaseDelta& delta,
                                TrackedPartition& partition,
                                uint32_t cell_index,
                                std::span<const VertexId> unit) {
  KSYM_CHECK(!unit.empty());
  KSYM_DCHECK(std::is_sorted(unit.begin(), unit.end()));

  std::vector<VertexId> copies;
  copies.reserve(unit.size());

  // Create all copies first so intra-unit edges can be wired pairwise. The
  // copy of unit[i] is copies[i]; `unit` is sorted, so a unit member's copy
  // is found by binary search instead of a per-call hash map.
  for (VertexId v : unit) {
    KSYM_DCHECK(v < delta.NumBaseVertices());
    KSYM_DCHECK(partition.CellOf(v) == cell_index);
    const VertexId v_copy =
        delta.AddVertex(base.Degree(v) + delta.added(v).size());
    partition.AddCopy(v_copy, cell_index, v);
    copies.push_back(v_copy);
  }
  const auto copy_of = [&unit, &copies](VertexId u) {
    const auto it = std::lower_bound(unit.begin(), unit.end(), u);
    KSYM_CHECK(it != unit.end() && *it == u);
    return copies[static_cast<size_t>(it - unit.begin())];
  };

  for (size_t i = 0; i < unit.size(); ++i) {
    const VertexId v = unit[i];
    const VertexId v_copy = copies[i];
    const auto wire = [&](VertexId u) {
      if (partition.CellOf(u) != cell_index) {
        // Rule 1: the copy keeps the exact external adjacency.
        delta.AddEdge(u, v_copy);
      } else {
        // Rule 2: intra-unit edges are mirrored between the copies. The
        // unit must be intra-cell closed, so u has a copy (checked in
        // copy_of); add each mirrored edge once (from the lower-indexed
        // endpoint). Originals only gain copies of *other* cells (rule 1),
        // so every in-cell neighbour of v is an original.
        const VertexId u_copy = copy_of(u);
        if (v < u) delta.AddEdge(v_copy, u_copy);
      }
    };
    // No AddEdge above touches v's own row (u != v and v_copy != v), so
    // both spans stay valid across the walk.
    for (VertexId u : base.Neighbors(v)) wire(u);
    for (VertexId u : delta.added(v)) wire(u);
  }
  return copies;
}

template <typename Base>
void AppendReleasedRows(const Base& base, const ReleaseDelta& delta,
                        size_t begin, size_t end,
                        std::vector<EdgeIndex>& offsets,
                        std::vector<VertexId>& neighbors) {
  const size_t n = delta.NumBaseVertices();
  for (size_t v = begin; v < end; ++v) {
    if (v < n) {
      const std::span<const VertexId> row =
          base.Neighbors(static_cast<VertexId>(v));
      neighbors.insert(neighbors.end(), row.begin(), row.end());
    }
    // A delta row holds only ids >= n for an original (every added edge
    // touches a copy), so sorting it in place after the base row leaves the
    // whole row sorted.
    const std::span<const VertexId> added =
        delta.added(static_cast<VertexId>(v));
    const size_t start = neighbors.size();
    neighbors.insert(neighbors.end(), added.begin(), added.end());
    std::sort(neighbors.begin() + static_cast<std::ptrdiff_t>(start),
              neighbors.end());
    offsets.push_back(neighbors.size());
  }
}

Graph ReleasedGraph(const Graph& base, const ReleaseDelta& delta) {
  std::vector<EdgeIndex> offsets;
  offsets.reserve(delta.NumVertices() + 1);
  offsets.push_back(0);
  std::vector<VertexId> neighbors;
  neighbors.reserve(2 * (base.NumEdges() + delta.added_edges()));
  AppendReleasedRows(base, delta, 0, delta.NumVertices(), offsets, neighbors);
  return Graph::FromCsr(std::move(offsets), std::move(neighbors));
}

template std::vector<VertexId> OrbitCopy(const Graph&, ReleaseDelta&,
                                         TrackedPartition&, uint32_t,
                                         std::span<const VertexId>);
template std::vector<VertexId> OrbitCopy(const ShardedGraph&, ReleaseDelta&,
                                         TrackedPartition&, uint32_t,
                                         std::span<const VertexId>);
template void AppendReleasedRows(const Graph&, const ReleaseDelta&, size_t,
                                 size_t, std::vector<EdgeIndex>&,
                                 std::vector<VertexId>&);
template void AppendReleasedRows(const ShardedGraph&, const ReleaseDelta&,
                                 size_t, size_t, std::vector<EdgeIndex>&,
                                 std::vector<VertexId>&);

}  // namespace ksym
