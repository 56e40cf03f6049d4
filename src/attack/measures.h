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
// NeighborhoodMeasure, whose ego-net keys cost enough to gain from
// threads, shards its key loop across the optional ExecutionContext's
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

/// The combined measure's labels from its components' labels: interns the
/// pairs (deg_labels[v], tri_labels[v]) in vertex order. Equal label pairs
/// are equal (Deg(v), tri(v)) pairs, so given NeighborDegreeSequenceMeasure's
/// and TriangleMeasure's labels these are CombinedMeasure's.
std::vector<uint32_t> CombinedLabels(const std::vector<uint32_t>& deg_labels,
                                     const std::vector<uint32_t>& tri_labels);

/// The 1-neighborhood isomorphism class: the induced subgraph on
/// N(v) ∪ {v} with v marked, up to isomorphism — the background knowledge
/// of the k-neighborhood anonymity model (Zhou & Pei, reference [19]).
/// Refines deg(v) and tri(v) (both derivable from the ego network) but is
/// incomparable with Deg(v), which sees neighbours' *outside* degrees.
/// Two rooted ego networks are isomorphic iff their neighbour graphs
/// H = G[N(v)] are, so an ego network of up to 64 vertices is classified
/// exactly by H: a star (H without edges) by its size alone; otherwise by
/// H's numbers of components that are K1, K2, P3 and K3 (the only
/// connected graphs of at most three vertices) and one canonical form of
/// its components of four or more vertices. Larger (hub) ego networks are
/// classified by their coloured refinement trace, which is
/// isomorphism-invariant (collisions only make the adversary weaker).
StructuralMeasure NeighborhoodMeasure(const ExecutionContext* context = nullptr);

/// The partition V_f induced by the equivalence u ~ v <=> f(u) = f(v).
VertexPartition PartitionByMeasure(const Graph& graph,
                                   const StructuralMeasure& measure);

/// The partition into vertices of equal label, labels[v] being v's dense
/// label (below labels.size(), as a measure's eval returns them).
VertexPartition PartitionByLabels(const std::vector<uint32_t>& labels);

/// The candidate set C(f, v): all vertices indistinguishable from v under
/// the measure (including v).
std::vector<VertexId> CandidateSet(const Graph& graph,
                                   const StructuralMeasure& measure,
                                   VertexId v);

}  // namespace ksym

#endif  // KSYM_ATTACK_MEASURES_H_
