// Automorphism group computation by individualization-refinement.
//
// ComputeAutomorphisms first collapses twins (aut/twins.h): every
// equal-coloured class of vertices with equal open or closed
// neighbourhoods becomes one coloured quotient vertex, round after round.
// It then runs a McKay-style backtracking search over ordered partitions of
// the quotient: refine to an equitable partition, pick an (invariant)
// target cell, individualize each of its vertices in turn, recurse. Every
// leaf is a discrete partition, i.e. a labelling; a leaf whose labelling g
// relative to the first leaf is an automorphism yields a generator (this is
// how nauty, which the paper uses, discovers generators). g is tested on
// the graph directly: equal degrees, and one HasEdge per arc at g's moved
// points.
//
// Pruning, without which k-symmetric graphs (enormous groups) would be
// intractable:
//   * invariant pruning — a child whose refinement trace differs from the
//     first path's trace at the same depth cannot lead to a leaf equal to
//     the first leaf;
//   * orbit pruning — siblings in the same orbit of the subgroup fixing the
//     current branch prefix generate equivalent subtrees; only one is
//     explored;
//   * backjumping — once a subtree off the first path yields an
//     automorphism, its remaining siblings inside that subtree are
//     redundant.
//
// The quotient's results are lifted to the input: its orbits become unions
// of blocks, and its generators are mapped block to block, after one block
// swap per pair of consecutive twin-class members. The returned generators
// generate Aut(G) (respecting `colors` if given), with
// |Aut(G)| = Π(class size)! · |Aut(quotient)|; orbit_rep is the
// automorphism partition Orb(G) in representative form.

#ifndef KSYM_AUT_SEARCH_H_
#define KSYM_AUT_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"
#include "perm/permutation.h"

namespace ksym {

struct AutomorphismResult {
  /// Generators of Aut(G) (colour-preserving if colours were supplied),
  /// each stored by its moved points only.
  std::vector<SparsePermutation> generators;
  /// orbit_rep[v] = minimum vertex of v's orbit under <generators>.
  std::vector<VertexId> orbit_rep;
  /// Search-tree nodes visited in the twin quotient (diagnostics).
  uint64_t nodes = 0;
};

/// Computes Aut(G). The search is sequential (a depth-first backtrack over
/// one shared partition); its refinement steps report their counters and
/// timers into `context`'s RefinementStats (may be null), and those count
/// work on the twin quotient. If `colors` is non-empty (size n), only
/// colour-preserving automorphisms are considered.
AutomorphismResult ComputeAutomorphisms(const Graph& graph,
                                        const std::vector<uint32_t>& colors,
                                        const ExecutionContext* context);

}  // namespace ksym

#endif  // KSYM_AUT_SEARCH_H_
