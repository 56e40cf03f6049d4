// DeltaGraph: an edit-batch overlay over the immutable CSR Graph
// (DESIGN.md §15).
//
// Real social networks mutate; the CSR Graph cannot. The dynamic layer
// keeps one immutable base graph plus per-vertex *sorted* insert/delete
// overlays, applied in validated batches. Everything downstream sees the
// merged view: per-vertex neighbour walks stream the base range and the
// insert overlay in one ascending merge while the delete overlay masks
// base entries, so the view is itself a valid simple graph with sorted
// adjacency — the same invariants Graph guarantees. Compact() materializes
// that view as a fresh owning CSR, which is what refinement and the orbit
// copy read; a commit compacts in place once the overlay crosses a ratio
// threshold (merged walks cost one extra branch per entry, so a fat
// overlay taxes every walk).
//
// EditBatch is the unit of mutation. Apply() is all-or-nothing behind a
// validation ladder — self-loops, duplicate edits, out-of-range endpoints,
// delete-of-absent (and insert-of-present) — so a rejected batch leaves
// the graph untouched.
//
// ContentChecksum() folds the merged adjacency into the content key the
// PlanCache (dyn/plan_cache.h) and the serve layer's keying discipline
// use: it depends only on the logical graph, never on how the edits were
// batched, so DeltaGraph::ContentChecksum() == GraphContentChecksum of the
// compacted graph (pinned by dyn_test).

#ifndef KSYM_DYN_DELTA_GRAPH_H_
#define KSYM_DYN_DELTA_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace ksym {
namespace dyn {

/// The HashMix fold used for content checksums and partition checksums —
/// the same mixer the refinement trace hash uses, so one hash quality
/// argument covers both.
inline uint64_t HashCombine(uint64_t h, uint64_t value) {
  h ^= value + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

/// One edge edit. Undirected: {u, v} and {v, u} are the same edit.
struct Edit {
  VertexId u = 0;
  VertexId v = 0;
  bool insert = true;  // false = delete.

  friend bool operator==(const Edit& a, const Edit& b) {
    return a.u == b.u && a.v == b.v && a.insert == b.insert;
  }
};

/// An ordered list of edits applied atomically by DeltaGraph::Apply.
class EditBatch {
 public:
  void Insert(VertexId u, VertexId v) { edits_.push_back({u, v, true}); }
  void Delete(VertexId u, VertexId v) { edits_.push_back({u, v, false}); }
  void Add(const Edit& edit) { edits_.push_back(edit); }

  bool empty() const { return edits_.empty(); }
  size_t size() const { return edits_.size(); }
  std::span<const Edit> edits() const { return edits_; }
  void clear() { edits_.clear(); }

  /// Sorted, duplicate-free endpoint set: the vertices this batch
  /// touches.
  std::vector<VertexId> Endpoints() const;

 private:
  std::vector<Edit> edits_;
};

/// An immutable base CSR graph plus sorted per-vertex insert/delete
/// overlays. Single-threaded mutation (Apply/CompactInPlace); concurrent
/// *reads* of a quiescent DeltaGraph are safe (everything is const).
class DeltaGraph {
 public:
  /// Takes ownership of the base graph. A borrowed graph (mmap view) is
  /// deep-copied by Graph's copy semantics if the caller passes one by
  /// copy; pass owning graphs to avoid lifetime surprises.
  explicit DeltaGraph(Graph base);

  size_t NumVertices() const { return base_.NumVertices(); }
  size_t NumEdges() const { return num_edges_; }

  /// Validates `batch` against the current merged view without mutating:
  /// the full ladder, in order — self-loop, duplicate edit in the batch,
  /// endpoint out of range, delete-of-absent / insert-of-present. The
  /// first offending edit is named (index + endpoints) in the status.
  Status Validate(const EditBatch& batch) const;

  /// Validate + apply, all-or-nothing: a failed batch leaves the graph
  /// exactly as it was.
  Status Apply(const EditBatch& batch);

  /// O(log deg) membership in the merged view.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Degree of v in the merged view.
  size_t DegreeOf(VertexId v) const {
    size_t deg = base_.Degree(v);
    if (!added_.empty()) deg += added_[v].size() - removed_[v].size();
    return deg;
  }

  /// Visits v's merged neighbours in ascending order: the base range minus
  /// the delete overlay, merged with the insert overlay.
  template <typename Fn>
  void ForEachNeighbor(VertexId v, Fn&& fn) const {
    const std::span<const VertexId> base = base_.Neighbors(v);
    if (added_.empty()) {
      for (VertexId w : base) fn(w);
      return;
    }
    const std::vector<VertexId>& add = added_[v];
    const std::vector<VertexId>& rem = removed_[v];
    size_t bi = 0;
    size_t ai = 0;
    size_t ri = 0;
    while (bi < base.size() || ai < add.size()) {
      if (bi < base.size() && ri < rem.size() && rem[ri] == base[bi]) {
        ++bi;
        ++ri;
        continue;
      }
      // Inserts are disjoint from base entries, so no equal case exists.
      if (ai < add.size() && (bi >= base.size() || add[ai] < base[bi])) {
        fn(add[ai++]);
      } else {
        fn(base[bi++]);
      }
    }
  }

  /// Merged sorted neighbour list, materialized.
  std::vector<VertexId> NeighborsOf(VertexId v) const;

  /// Total overlay entries (insert + delete, both directions).
  size_t OverlayEntries() const { return overlay_entries_; }

  /// Overlay size relative to the base arc count — the compaction trigger.
  double OverlayRatio() const;
  bool HasOverlay() const { return overlay_entries_ != 0; }

  /// A fresh owning CSR of the merged view; vertex ids are unchanged.
  Graph Compact() const;

  /// Replaces the base with Compact() and clears the overlays. The content
  /// checksum is unchanged (it hashes the merged view).
  void CompactInPlace();

  /// Content key of the merged view: a streaming fold over (n, per-vertex
  /// degree, sorted neighbours). Equal to GraphContentChecksum(Compact()).
  uint64_t ContentChecksum() const;

  const Graph& base() const { return base_; }

 private:
  Graph base_;
  // Indexed by vertex; both empty until the first applied batch. added_[v]
  // is sorted and disjoint from v's base range; removed_[v] is a sorted
  // subset of it.
  std::vector<std::vector<VertexId>> added_;
  std::vector<std::vector<VertexId>> removed_;
  size_t num_edges_ = 0;
  size_t overlay_entries_ = 0;
};

/// The same content fold over a resident CSR graph — the key under which a
/// compacted (or from-scratch) graph matches its DeltaGraph ancestor.
uint64_t GraphContentChecksum(const Graph& graph);

}  // namespace dyn
}  // namespace ksym

#endif  // KSYM_DYN_DELTA_GRAPH_H_
