// Core graph types for ksym.
//
// The paper models a social network as a simple undirected graph
// G = (V, E) with no self-loops or parallel edges. `Graph` is the immutable
// workhorse used by all analysis code: vertices are dense ids
// [0, NumVertices()), adjacency lists are sorted, and every undirected edge
// {u, v} appears in both lists.
//
// Memory layout (CSR / compressed sparse row). The immutable Graph stores
// exactly two flat arrays:
//
//   offsets_   n + 1 monotone entries; vertex v's neighbours live at
//              neighbors_[offsets_[v] .. offsets_[v + 1])
//   neighbors_ 2 * |E| vertex ids, each per-vertex range sorted ascending
//              and duplicate-free
//
// Invariants:
//   - offsets_.front() == 0, offsets_.back() == neighbors_.size(),
//     offsets_ is non-decreasing.
//   - Every range [offsets_[v], offsets_[v+1]) is strictly increasing and
//     never contains v itself (simple graph).
//   - Symmetry: u appears in v's range iff v appears in u's range, so
//     neighbors_.size() is even and NumEdges() == neighbors_.size() / 2.
//
// A full neighbour sweep is one linear pass over a contiguous array — no
// per-vertex heap allocation, no pointer chasing — which is what the hot
// refinement / search / sampling loops rely on. Construction is a
// counting-sort (GraphBuilder::Build); Graph::FromCsr adopts already-built
// arrays with no copy, which is how the anonymizer emits its release (input
// rows followed by the copies' rows, ksym/orbit_copy.h).
//
// Storage ownership. A Graph normally owns its two arrays, but
// Graph::FromBorrowedCsr builds a *borrowed* graph whose spans point at
// externally-owned memory (an mmap'ed .ksymcsr file — see graph/io.h). A
// borrowed graph is a zero-copy view valid only while the external storage
// lives. *Moving* it transfers the view (still zero-copy, still tied to the
// storage); *copying* it materializes an owning deep copy, so copies are
// always safe to keep past the mapping's lifetime. DESIGN.md §9 spells out
// the lifetime contract.
//
// `GraphBuilder` assembles a Graph from arbitrary edge insertions
// (deduplicating and dropping self-loops). A Graph is never modified in
// place: code that grows or edits a graph builds a new one.

#ifndef KSYM_GRAPH_GRAPH_H_
#define KSYM_GRAPH_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"

namespace ksym {

using VertexId = uint32_t;

/// Index type into the flat neighbor array (2 * |E| entries, which can
/// exceed 32 bits on billion-edge graphs).
using EdgeIndex = uint64_t;

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// An immutable simple undirected graph with dense vertex ids and sorted
/// adjacency lists, stored in CSR form (see the file comment for layout and
/// invariants). Copyable and movable.
class Graph {
 public:
  /// An empty graph with `num_vertices` isolated vertices.
  explicit Graph(size_t num_vertices = 0)
      : offsets_storage_(num_vertices + 1, 0) {
    SyncViews();
  }

  /// Adopts prebuilt CSR arrays without copying. `offsets` must have n + 1
  /// monotone entries ending at `neighbors.size()`, and every per-vertex
  /// range must be sorted, duplicate-free, self-loop-free, and symmetric
  /// (checked in debug builds).
  static Graph FromCsr(std::vector<EdgeIndex> offsets,
                       std::vector<VertexId> neighbors);

  /// Builds a *borrowed* graph over externally-owned CSR arrays: no copy is
  /// made and the caller must keep the storage alive (and unmodified) for
  /// the lifetime of this graph and anything it is moved into; copies are
  /// owning and independent. The arrays must satisfy the same invariants as
  /// FromCsr; callers loading untrusted bytes must validate first
  /// (graph/io.h does) — this entry point CHECKs only the cheap invariants
  /// and is not a validator.
  static Graph FromBorrowedCsr(std::span<const EdgeIndex> offsets,
                               std::span<const VertexId> neighbors);

  /// Deep copy: a copy always owns its arrays. Copying a *borrowed* graph
  /// deep-copies the external storage into the new graph, so no copy can
  /// outlive-dangle the mapping it came from (moves, by contrast, keep the
  /// borrowed view).
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  /// Moved-from graphs are valid only for destruction and assignment (the
  /// same contract the previous vector-backed layout had).
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;
  ~Graph() = default;

  /// False iff this graph borrows externally-owned storage
  /// (FromBorrowedCsr).
  bool OwnsStorage() const { return !borrowed_; }

  size_t NumVertices() const { return offsets_.size() - 1; }

  /// Number of undirected edges.
  size_t NumEdges() const { return neighbors_.size() / 2; }

  /// Sorted neighbors of `v`.
  std::span<const VertexId> Neighbors(VertexId v) const {
    KSYM_DCHECK(v + 1 < offsets_.size());
    return {neighbors_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }

  size_t Degree(VertexId v) const {
    KSYM_DCHECK(v + 1 < offsets_.size());
    return static_cast<size_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// O(log deg) membership test for the undirected edge {u, v}.
  bool HasEdge(VertexId u, VertexId v) const;

  /// All undirected edges with u < v, in lexicographic order.
  std::vector<std::pair<VertexId, VertexId>> Edges() const;

  /// Visits every undirected edge as fn(u, v) with u < v, in lexicographic
  /// order, without materializing an edge list. Each vertex's forward
  /// neighbours (> u) are a contiguous suffix of its sorted range, found by
  /// one binary search — no transpose or scratch needed.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    const VertexId n = static_cast<VertexId>(NumVertices());
    for (VertexId u = 0; u < n; ++u) {
      const VertexId* lo = neighbors_.data() + offsets_[u];
      const VertexId* hi = neighbors_.data() + offsets_[u + 1];
      for (const VertexId* it = std::upper_bound(lo, hi, u); it != hi; ++it) {
        fn(u, *it);
      }
    }
  }

  /// Degrees of all vertices, indexed by vertex id.
  std::vector<size_t> Degrees() const;

  /// Raw CSR arrays, for flat-layout passes (bench, serialization).
  std::span<const EdgeIndex> RawOffsets() const { return offsets_; }
  std::span<const VertexId> RawNeighbors() const { return neighbors_; }

  /// Heap bytes held by this graph (capacity-based, excluding
  /// sizeof(*this)). Borrowed graphs own no heap storage and report 0; the
  /// bytes live in the external mapping.
  size_t MemoryBytes() const {
    return offsets_storage_.capacity() * sizeof(EdgeIndex) +
           neighbors_storage_.capacity() * sizeof(VertexId);
  }

  /// Structural equality: same vertex count and identical adjacency
  /// (regardless of which graph owns its storage). This is *labelled*
  /// equality, not isomorphism.
  friend bool operator==(const Graph& a, const Graph& b) {
    return std::ranges::equal(a.offsets_, b.offsets_) &&
           std::ranges::equal(a.neighbors_, b.neighbors_);
  }

 private:
  friend class GraphBuilder;

  /// Adopts owning storage and points the views at it.
  void AdoptStorage(std::vector<EdgeIndex> offsets,
                    std::vector<VertexId> neighbors);
  /// Re-points the views at the owning storage vectors.
  void SyncViews() {
    offsets_ = offsets_storage_;
    neighbors_ = neighbors_storage_;
    borrowed_ = false;
  }

  // Owning storage; both empty when the graph borrows external memory.
  std::vector<EdgeIndex> offsets_storage_;
  std::vector<VertexId> neighbors_storage_;
  // The views all accessors read. Point at the storage vectors for owning
  // graphs, at external memory for borrowed ones.
  std::span<const EdgeIndex> offsets_;   // n + 1 entries; see file comment.
  std::span<const VertexId> neighbors_;  // 2 * |E| entries, sorted per range.
  bool borrowed_ = false;
};

/// Accumulates edges and produces a valid Graph. Self-loops are dropped and
/// duplicate edges are merged, so any edge soup yields a simple graph.
class GraphBuilder {
 public:
  /// Starts with `num_vertices` isolated vertices; AddEdge with endpoints
  /// beyond the current count grows the vertex set automatically.
  explicit GraphBuilder(size_t num_vertices = 0);

  /// Adds a fresh isolated vertex and returns its id.
  VertexId AddVertex();

  /// Ensures at least `n` vertices exist.
  void EnsureVertices(size_t n);

  /// Records the undirected edge {u, v}. Self-loops are silently ignored.
  void AddEdge(VertexId u, VertexId v);

  size_t NumVertices() const { return num_vertices_; }

  /// Builds the graph directly in CSR form via counting-sort. The builder
  /// can be reused afterwards (it keeps its state); typical callers just let
  /// it go out of scope.
  Graph Build() const;

 private:
  size_t num_vertices_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

}  // namespace ksym

#endif  // KSYM_GRAPH_GRAPH_H_
