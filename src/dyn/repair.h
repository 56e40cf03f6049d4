// The checksums of the dynamic layer (DESIGN.md §15).
//
// A reanonymize epoch reports two checksums. The graph checksum folds the
// committed adjacency, so it depends only on the edge set, never on how the
// edits were batched. The partition checksum hashes the TDV partition the
// epoch published, so a client can check that epoch against a from-scratch
// ComputeTotalDegreePartition of the same edge set without comparing
// release bytes. It hashes what a refinement converges to (the canonical
// VertexPartition), not how it got there, so it is independent of the
// refiner's schedule and trace hash.

#ifndef KSYM_DYN_REPAIR_H_
#define KSYM_DYN_REPAIR_H_

#include <cstdint>

#include "aut/orbits.h"
#include "graph/graph.h"

namespace ksym {
namespace dyn {

/// Content key of a graph: a fold over (n, per-vertex degree, sorted
/// neighbours).
uint64_t GraphContentChecksum(const Graph& graph);

/// Canonical content digest of a VertexPartition (cells are sorted and
/// min-ordered by construction) — the dynamic layer's partition identity,
/// printed by the reanonymize report.
uint64_t PartitionChecksum(const VertexPartition& partition);

}  // namespace dyn
}  // namespace ksym

#endif  // KSYM_DYN_REPAIR_H_
