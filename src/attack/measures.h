// Structural knowledge measures — Section 2.2 of the paper.
//
// A structural measure f assigns each vertex a value computable from the
// naively-anonymized topology; vertices with equal values are
// indistinguishable to an adversary who only knows f. The partition
// induced by f is always coarser than (or equal to) the automorphism
// partition Orb(G), whose cells are the theoretical limit of any structural
// knowledge.
//
// Measures return dense interned labels (equal label <=> equal value), so
// no hashing-collision caveats apply.

#ifndef KSYM_ATTACK_MEASURES_H_
#define KSYM_ATTACK_MEASURES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "aut/orbits.h"
#include "common/parallel.h"
#include "graph/graph.h"

namespace ksym {

/// A named structural measure: eval returns one dense label per vertex.
struct StructuralMeasure {
  std::string name;
  std::function<std::vector<uint32_t>(const Graph&)> eval;
};

// Keys are computed per vertex and interned in vertex order. Only
// NeighborhoodMeasure, whose ego-net canonical forms cost enough to gain
// from threads, shards its key loop across the optional ExecutionContext's
// pool (the context must outlive the measure); its labels are
// bit-identical for any thread count. The other factories run one plain
// loop and ignore their context, which they keep because the repository
// benchmark (perfbench/) passes one; it goes with its next change.

/// deg(v) — the vertex degree (the knowledge behind k-degree anonymity).
StructuralMeasure DegreeMeasure(const ExecutionContext* context = nullptr);

/// tri(v) — the number of triangles through v.
StructuralMeasure TriangleMeasure(const ExecutionContext* context = nullptr);

/// Deg(v) — the sorted degree sequence of v's neighbourhood (the paper's
/// first component of the combined measure; also subsumes deg(v)).
StructuralMeasure NeighborDegreeSequenceMeasure(
    const ExecutionContext* context = nullptr);

/// The paper's combined two-tuple f(v) = (Deg(v), tri(v)).
StructuralMeasure CombinedMeasure(const ExecutionContext* context = nullptr);

/// The 1-neighborhood isomorphism class: the induced subgraph on
/// N(v) ∪ {v} with v marked, up to isomorphism — the background knowledge
/// of the k-neighborhood anonymity model (Zhou & Pei, reference [19]).
/// Refines deg(v) and tri(v) (both derivable from the ego network) but is
/// incomparable with Deg(v), which sees neighbours' *outside* degrees.
/// Ego networks up to 64 vertices are classified by exact canonical form;
/// larger (hub) ego networks by their coloured refinement trace, which is
/// isomorphism-invariant (collisions only make the adversary weaker).
StructuralMeasure NeighborhoodMeasure(const ExecutionContext* context = nullptr);

/// The partition V_f induced by the equivalence u ~ v <=> f(u) = f(v).
VertexPartition PartitionByMeasure(const Graph& graph,
                                   const StructuralMeasure& measure);

/// The candidate set C(f, v): all vertices indistinguishable from v under
/// the measure (including v).
std::vector<VertexId> CandidateSet(const Graph& graph,
                                   const StructuralMeasure& measure,
                                   VertexId v);

}  // namespace ksym

#endif  // KSYM_ATTACK_MEASURES_H_
