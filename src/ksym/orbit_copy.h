// The orbit copying operation Ocp(G, V, V_i) — Definition 3 of the paper —
// and the release delta it writes to. This is the one Ocp: every Algorithm 1
// entry point (in-memory, vertex-minimal, sharded) and Algorithm 3's regrow
// copy through it (DESIGN.md §11).
//
// For each vertex v in the copied unit, a new vertex v' is introduced and
// wired so that the copy preserves the unit's adjacency pattern exactly:
//   1. every edge (u, v) with u outside the unit's cell becomes (u, v');
//   2. every edge (u, v) inside the unit becomes (u', v').
// Copies are appended to the unit's cell, which by Lemmas 1-2 keeps the
// tracked partition a sub-automorphism partition of the growing graph.
//
// The input graph (the *base*) is never copied or modified. Every edge Ocp
// adds touches a new vertex, so the added adjacency lives in a ReleaseDelta:
// originals keep only their added neighbours (all ids >= n), copies their
// whole rows. An original's released row is therefore its base row (ids < n,
// sorted) followed by its sorted delta row — globally sorted with no merge.
// The base is any graph with `Neighbors` and `Degree`: a `Graph` in memory
// or a `ShardedGraph` on disk.
//
// The `unit` parameter generalizes the textbook operation: Algorithm 1
// always copies the cell's original members, while the vertex-minimal
// variant (Section 5.1) copies one component of the cell.

#ifndef KSYM_KSYM_ORBIT_COPY_H_
#define KSYM_KSYM_ORBIT_COPY_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "ksym/partition.h"

namespace ksym {

/// The adjacency Algorithm 1 adds on top of a base graph of `base` vertices:
/// the only edge state an anonymization holds besides its input. Rows stay
/// in insertion order until emitted.
class ReleaseDelta {
 public:
  explicit ReleaseDelta(size_t base) : base_(base), added_(base) {}

  size_t NumBaseVertices() const { return base_; }
  size_t NumVertices() const { return base_ + new_rows_.size(); }
  size_t added_edges() const { return added_edges_; }

  /// Appends a new vertex whose row has room for `degree` neighbours. Ocp
  /// passes the original's current degree, which the copy reaches at once:
  /// rows that grow from empty fragment the heap (DESIGN.md §11).
  VertexId AddVertex(size_t degree) {
    new_rows_.emplace_back().reserve(degree);
    return static_cast<VertexId>(NumVertices() - 1);
  }

  void AddEdge(VertexId u, VertexId v) {
    KSYM_DCHECK(u != v);
    Row(u).push_back(v);
    Row(v).push_back(u);
    ++added_edges_;
  }

  /// Neighbours added to `v`: on top of the base row for an original, the
  /// whole row for a copy.
  std::span<const VertexId> added(VertexId v) const {
    KSYM_DCHECK(v < NumVertices());
    return v < base_ ? std::span<const VertexId>(added_[v])
                     : std::span<const VertexId>(new_rows_[v - base_]);
  }

 private:
  std::vector<VertexId>& Row(VertexId v) {
    KSYM_DCHECK(v < NumVertices());
    return v < base_ ? added_[v] : new_rows_[v - base_];
  }

  size_t base_;
  std::vector<std::vector<VertexId>> added_;     // Per original, ids >= base_.
  std::vector<std::vector<VertexId>> new_rows_;  // Per copy, full row.
  size_t added_edges_ = 0;
};

/// Applies one orbit copying operation to (base, delta) and `partition`,
/// duplicating `unit`: a *sorted* subset of the original members of cell
/// `cell_index`, closed under intra-cell adjacency (every intra-cell
/// neighbour of a unit vertex is itself in the unit — true of whole cells
/// and of unions of connected components of the cell-induced subgraph).
/// A unit member's current row is its base row followed by its delta row.
/// Sortedness lets intra-unit copies be resolved by binary search.
///
/// Returns the new vertex ids, aligned with `unit`. Instantiated for `Graph`
/// and `ShardedGraph`.
template <typename Base>
std::vector<VertexId> OrbitCopy(const Base& base, ReleaseDelta& delta,
                                TrackedPartition& partition,
                                uint32_t cell_index,
                                std::span<const VertexId> unit);

/// The row emitter: appends the released rows of vertices [begin, end) to
/// `neighbors` — base row, then sorted delta row — and one end offset per
/// row to `offsets`. Instantiated for `Graph` and `ShardedGraph`.
template <typename Base>
void AppendReleasedRows(const Base& base, const ReleaseDelta& delta,
                        size_t begin, size_t end,
                        std::vector<EdgeIndex>& offsets,
                        std::vector<VertexId>& neighbors);

/// The released graph of an in-memory base: every row through
/// AppendReleasedRows.
Graph ReleasedGraph(const Graph& base, const ReleaseDelta& delta);

}  // namespace ksym

#endif  // KSYM_KSYM_ORBIT_COPY_H_
