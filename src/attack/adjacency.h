// (k,ℓ)-adjacency anonymity (Mauw, Trujillo-Rasua & Xuan 2017), rendered as
// a structural measure.
//
// The adversary knows, for its victim, the degrees of the victim's ℓ most
// connected neighbours — the strongest *structural* fragment of adjacency
// knowledge. key_ℓ(v) is the descending neighbour-degree sequence of v
// truncated to ℓ entries; the candidate set is every vertex sharing the
// key. A released graph is (k,ℓ)-adjacency-anonymous when every candidate
// set under AdjacencyMeasure(ℓ) has size ≥ k.
//
// Two properties make this the right rendering here:
//   * Equivariance: key_ℓ is preserved by every graph automorphism, so on a
//     k-symmetric release each candidate set is a union of orbits and has
//     size ≥ k — the property the test suite pins down. An adversary with
//     *identified* neighbours (named seed accounts) is strictly stronger
//     and is exactly the sybil model's domain (attack/sybil.h).
//   * Monotonicity: key_{ℓ+1} refines key_ℓ (prefix property), so sweeping
//     ℓ yields a non-increasing candidate-set-size curve — the (k,ℓ) curve
//     the harness reports.

#ifndef KSYM_ATTACK_ADJACENCY_H_
#define KSYM_ATTACK_ADJACENCY_H_

#include <cstdint>

#include "attack/measures.h"

namespace ksym {

/// The ℓ-truncated descending neighbour-degree measure ("adjacency-l<ℓ>").
/// ℓ = 0 puts every vertex in one cell; large ℓ converges to the full
/// neighbour-degree sequence.
StructuralMeasure AdjacencyMeasure(uint32_t ell);

}  // namespace ksym

#endif  // KSYM_ATTACK_ADJACENCY_H_
