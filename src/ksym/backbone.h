// Graph backbone detection — Algorithm 2 and Section 4.1 of the paper.
//
// The backbone B_{G,V} is the least element of the reduction lattice
// (Theorem 3): the smallest graph from which (G, V) can be regrown by orbit
// copying operations. Detection inverts orbit copying: inside each cell V,
// the induced subgraph G[V] decomposes into connected components; a
// component that is isomorphic to another *under the L(V) constraint*
// (matched vertices must share the same neighbourhood outside V — Section
// 4.2.2) is an orbit-copy and is removed. We encode the L(V) constraint as
// vertex colours (one colour per distinct external neighbourhood) and use
// colour-preserving isomorphism.
//
// One pass over the cells of (G, V) as published reaches the least element
// of Theorems 3-4, in any cell order (see ComputeBackbone). One classifier,
// CellCopyClasses below, decides which components of a cell are
// L(V)-copies; backbone detection and the vertex-minimal unit chooser
// (ksym/minimal.h) both read its answer.

#ifndef KSYM_KSYM_BACKBONE_H_
#define KSYM_KSYM_BACKBONE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "aut/orbits.h"
#include "common/parallel.h"
#include "graph/algorithms.h"
#include "graph/graph.h"

namespace ksym {

struct BackboneResult {
  /// The backbone graph B_{G,V} with dense ids.
  Graph graph;
  /// Cell b of V restricted to `kept`, in backbone ids.
  VertexPartition partition;
  /// kept[i] = vertex of the input graph that backbone vertex i represents.
  std::vector<VertexId> kept;
  /// Number of vertices removed as orbit-copies.
  size_t removed_vertices = 0;
  /// Number of component-level reduction operations applied.
  size_t reduction_operations = 0;
};

/// Computes the backbone of (graph, partition) in one pass over the cells,
/// timed into `context`'s backbone_seconds (context may be null). A removed
/// component copies a kept one whose matched members have its outside
/// neighbourhoods, so no removal changes another cell's L(V) colour
/// classes and a second pass would remove nothing. `partition` must be a
/// sub-automorphism partition of `graph` (e.g. Orb(G), or the released V'
/// of an anonymized graph).
BackboneResult ComputeBackbone(const Graph& graph,
                               const VertexPartition& partition,
                               const ExecutionContext* context);

// ---------------------------------------------------------------------------
// The one L(V)-copy test behind ComputeBackbone and minimal.h's unit
// chooser. Not a separate algorithm: callers outside ksym/ use the entry
// points.
// ---------------------------------------------------------------------------

/// Classifies the connected components of one cell's induced subgraph by
/// L(V)-copy: component c copies component d when a colour-preserving
/// isomorphism maps c onto d, a member's colour being its neighbourhood
/// outside the cell. Each component gets one exact key, and copies are the
/// components sharing it. Keeps O(|V|) scratch, so one instance serves
/// every cell of a graph.
class CellCopyClasses {
 public:
  explicit CellCopyClasses(const Graph& graph);

  /// Classifies `cell` of `partition` (sorted, as VertexPartition keeps
  /// it) over the whole graph.
  void Classify(const VertexPartition& partition, uint32_t cell);

  /// Components, numbered by minimum member.
  uint32_t NumComponents() const {
    return static_cast<uint32_t>(copy_of_.size());
  }
  /// Component c's members, ascending.
  std::span<const VertexId> Members(uint32_t c) const {
    return std::span<const VertexId>(by_component_)
        .subspan(start_[c], start_[c + 1] - start_[c]);
  }
  /// The first component with c's key (the first c is an L(V)-copy of).
  uint32_t CopyOf(uint32_t c) const { return copy_of_[c]; }

 private:
  const Graph& graph_;
  // Each member's index in its cell; read only for members of the cell
  // being classified, so stale entries need no reset.
  std::vector<uint32_t> index_of_;
  std::vector<uint32_t> degree_;  // Per member, inside its component.
  std::vector<VertexId> by_component_;  // Members grouped by component.
  std::vector<uint32_t> start_;  // Component c: [start_[c], start_[c + 1]).
  std::vector<uint32_t> copy_of_;
  SubgraphExtractor extractor_;
};

}  // namespace ksym

#endif  // KSYM_KSYM_BACKBONE_H_
