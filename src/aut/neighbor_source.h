// The neighbor-access seam under the equitable refiner (DESIGN.md §11).
//
// Refinement is the only part of the automorphism/anonymization stack whose
// inner loop walks edges; everything else it touches (counts, partitions,
// worklists) is O(n) vertex state. NeighborSource abstracts exactly that
// inner loop — "count, per vertex, how many splitter members are adjacent
// to it" — at whole-splitter granularity, so the refiner pays one virtual
// call per splitter instead of one per edge, and the same split code runs
// over an in-memory CSR graph (CsrNeighborSource, below) or an out-of-core
// shard set (ShardedNeighborSource in shard/refine.h) without knowing
// which.
//
// Contract: `count` has NumVertices() entries, all zero on entry. Each
// neighbor occurrence increments its count by one; the increment that lifts
// a vertex's count off zero appends that vertex to `touched`, so `touched`
// enumerates {v : count[v] > 0} exactly once. Counts are commutative sums,
// so any implementation that performs the same multiset of increments is
// equivalent — the refiner sorts away touched order before it feeds
// anything into a split or the trace hash (DESIGN.md §7, §11).

#ifndef KSYM_AUT_NEIGHBOR_SOURCE_H_
#define KSYM_AUT_NEIGHBOR_SOURCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace ksym {

class NeighborSource {
 public:
  virtual ~NeighborSource() = default;

  /// Number of vertices of the underlying graph (sizes the count array).
  virtual size_t NumVertices() const = 0;

  /// For every edge (u, v) with u in `splitter`, ++count[v], appending v to
  /// `touched` when its count lifts off zero.
  virtual void CountSplitter(std::span<const VertexId> splitter,
                             std::span<uint32_t> count,
                             std::vector<VertexId>& touched) = 0;
};

/// The in-memory implementation: one resident CSR Graph. This is the path
/// every in-memory Refiner user (automorphism search, canonical labelling,
/// attack measures) takes.
class CsrNeighborSource final : public NeighborSource {
 public:
  explicit CsrNeighborSource(const Graph& graph) : graph_(graph) {}

  size_t NumVertices() const override { return graph_.NumVertices(); }

  void CountSplitter(std::span<const VertexId> splitter,
                     std::span<uint32_t> count,
                     std::vector<VertexId>& touched) override;

 private:
  const Graph& graph_;
};

}  // namespace ksym

#endif  // KSYM_AUT_NEIGHBOR_SOURCE_H_
