// Vertex-minimal anonymization — Section 5.1 of the paper.
//
// Algorithm 1 copies a whole orbit per operation, so an orbit of size s that
// must reach k receives ceil((k-s)/s) * s new vertices — up to s-1 more than
// necessary. The paper's improvement: when the orbit's induced subgraph
// consists of several components that are orbit-copies of each other (the
// orbit is "redundant", i.e. reducible in the backbone), copy only a single
// component (the backbone unit) per operation, reaching k with the minimal
// number of new vertices.
//
// Copying a single component C of G[V] is itself a legal orbit copying
// operation: splitting V into its L(V)-copy components yields a finer
// sub-automorphism partition in which C is a cell. We apply it only when
// *all* components of the cell are mutual L(V)-copies (identical external
// neighbourhoods under some isomorphism); otherwise copying one component
// would break the symmetry between components attached to different parts
// of the graph, and we fall back to whole-orbit copying.
//
// Which components are L(V)-copies is decided by the one classifier that
// backbone detection uses (CellCopyClasses, ksym/backbone.h).
//
// This is not a second Algorithm 1: it is the same per-cell walk and the
// same Ocp (ksym/anonymizer.h, ksym/orbit_copy.h) with a different unit
// chooser, so it emits its release the same way.

#ifndef KSYM_KSYM_MINIMAL_H_
#define KSYM_KSYM_MINIMAL_H_

#include "ksym/anonymizer.h"

namespace ksym {

/// Like AnonymizeWithPartition, but per-cell copies the smallest legal unit
/// (one L(V)-copy component) when the cell decomposes into mutual copies.
/// Counts in the result reflect the smaller insertions.
Result<AnonymizationResult> AnonymizeMinimalVertices(
    const Graph& graph, const VertexPartition& initial,
    const AnonymizationOptions& options);

/// Convenience overload computing Orb(G) (or TDV per options) internally,
/// through the same initial-partition step as Anonymize (so the TDV path
/// reports `refinement_trace`).
Result<AnonymizationResult> AnonymizeMinimalVertices(
    const Graph& graph, const AnonymizationOptions& options);

}  // namespace ksym

#endif  // KSYM_KSYM_MINIMAL_H_
