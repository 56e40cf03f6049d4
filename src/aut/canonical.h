// Canonical labelling of (optionally vertex-coloured) graphs.
//
// ComputeCanonicalForm returns a labelling such that two graphs have equal
// canonical forms iff they are isomorphic (colour-preservingly, when colours
// are supplied with consistent values across both graphs). Like the
// automorphism search it first collapses twins (aut/twins.h), then runs an
// individualization-refinement tree on the coloured quotient and keeps the
// lexicographically greatest (invariant-trace, relabelled-edge-list) leaf.
// That leaf orders the quotient vertices; the labelling lays their blocks
// out in that order, each block in nested order. Leaves equal to the first
// or the best leaf give automorphisms, stored by their moved points, which
// prune sibling branches in the same orbit.
//
// The backbone detector keys components by it (Algorithm 2 needs component
// isomorphism constrained by external neighbourhoods, which we encode as
// vertex colours), and AreIsomorphic (aut/isomorphism.h) compares two
// forms.

#ifndef KSYM_AUT_CANONICAL_H_
#define KSYM_AUT_CANONICAL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "perm/permutation.h"

namespace ksym {

struct CanonicalForm {
  /// Maps original vertex -> canonical position.
  Permutation labeling;
  /// Sorted canonical edge list.
  std::vector<std::pair<VertexId, VertexId>> edges;
  /// Colour at each canonical position (empty iff the input was uncoloured).
  std::vector<uint32_t> colors;

  friend bool operator==(const CanonicalForm& a, const CanonicalForm& b) {
    return a.labeling.Size() == b.labeling.Size() && a.edges == b.edges &&
           a.colors == b.colors;
  }
};

/// Computes the canonical form of `graph` under optional vertex colours.
CanonicalForm ComputeCanonicalForm(const Graph& graph,
                                   const std::vector<uint32_t>& colors = {});

}  // namespace ksym

#endif  // KSYM_AUT_CANONICAL_H_
