// The automorphism partition Orb(G) (Section 2.1 of the paper) and its
// scalable approximation TDV(G) (Section 7).
//
// Orb(G) is the partition of V(G) into orbits of Aut(G); |Orb(v)| upper
// bounds the power of *any* structural knowledge to re-identify v. The
// total degree partition TDV(G) — the coarsest equitable partition — is a
// superset partition (every orbit lies inside one TDV cell); the paper
// reports TDV(G) = Orb(G) on all their real networks, a claim our
// bench_ablation_tdv re-checks on the synthetic stand-ins.

#ifndef KSYM_AUT_ORBITS_H_
#define KSYM_AUT_ORBITS_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace ksym {

/// A partition of the vertex set into labelled cells.
struct VertexPartition {
  /// cell_of[v]: index of v's cell in `cells`.
  std::vector<uint32_t> cell_of;
  /// Cells, each sorted ascending; cells ordered by their minimum element.
  std::vector<std::vector<VertexId>> cells;

  size_t NumCells() const { return cells.size(); }
  size_t CellSizeOf(VertexId v) const { return cells[cell_of[v]].size(); }

  /// Number of singleton cells (uniquely re-identifiable vertices).
  size_t NumSingletons() const;

  /// Builds a partition from a representative array (rep[v] identifies v's
  /// cell; equal rep = same cell).
  static VertexPartition FromRepresentatives(const std::vector<VertexId>& rep);

  /// Builds from explicit cells covering [0, n) exactly once.
  static VertexPartition FromCells(size_t n,
                                   std::vector<std::vector<VertexId>> cells);

  friend bool operator==(const VertexPartition& a, const VertexPartition& b) {
    return a.cells == b.cells;
  }
};

/// Exact automorphism partition Orb(G) via the IR search on the twin
/// quotient (aut/search.h); the search's refinement stats and timers
/// accumulate into `context` (may be null). If `colors` is non-empty,
/// orbits of the colour-preserving automorphism group.
VertexPartition ComputeAutomorphismPartition(const Graph& graph,
                                             const std::vector<uint32_t>& colors,
                                             const ExecutionContext* context);

/// TDV(G): the coarsest equitable partition (iterated degree refinement),
/// on `context`'s execution policy. Every cell is a union of orbits, so it
/// is a *conservative upper approximation*: cell sizes >= orbit sizes.
/// If `trace_hash` is non-null it receives the refinement trace hash — the
/// digest the sharded pipeline compares against the in-memory run.
VertexPartition ComputeTotalDegreePartition(const Graph& graph,
                                            const ExecutionContext* context,
                                            uint64_t* trace_hash = nullptr);

}  // namespace ksym

#endif  // KSYM_AUT_ORBITS_H_
