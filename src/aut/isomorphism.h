// Graph isomorphism testing via canonical forms: the library's test of
// whether two given graphs are isomorphic, optionally colour-preserving.
// Backbone detection does not call it: it keys each component once by its
// coloured canonical form (aut/canonical.h) and compares keys.

#ifndef KSYM_AUT_ISOMORPHISM_H_
#define KSYM_AUT_ISOMORPHISM_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace ksym {

/// Colour-preserving isomorphism test. Colour values must be consistent
/// across the two graphs (same value = same colour). Empty colour vectors
/// mean uncoloured. Runs cheap invariant pre-checks (sizes, degree and
/// colour profiles) before falling back to canonical forms.
bool AreIsomorphic(const Graph& a, const Graph& b,
                   const std::vector<uint32_t>& colors_a = {},
                   const std::vector<uint32_t>& colors_b = {});

}  // namespace ksym

#endif  // KSYM_AUT_ISOMORPHISM_H_
