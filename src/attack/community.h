// Community-based re-identification (after Tai, Yu, Yang & Chen 2011):
// the adversary knows which *community* the victim sits in and how the
// victim's neighbourhood spreads over communities — coarse social context
// ("works at X, most friends at X, two at Y") rather than exact structure.
//
// Communities are recovered from the released topology alone by
// deterministic synchronous label propagation: labels start as interned
// degrees and each round every vertex adopts the most frequent label among
// its neighbours (smallest label on ties). Both the seeding and the update
// rule are *equivariant* — they commute with every graph automorphism —
// so symmetric vertices always land in the same community. That is the
// load-bearing property: on a k-symmetric release the community signature
// partition is coarser than Orb(G'), every candidate set is a union of
// orbits, and the ≥ k guarantee extends to this adversary. (Seeding from
// vertex *ids* would silently break this; see attack_harness_test.)
//
// The signature offered to the adversary is
//   sig(v) = (community(v), sorted multiset of (community, count) over N(v))
// wrapped as a StructuralMeasure so the harness and the r_f/s_f machinery
// apply unchanged.

#ifndef KSYM_ATTACK_COMMUNITY_H_
#define KSYM_ATTACK_COMMUNITY_H_

#include <cstdint>
#include <vector>

#include "attack/measures.h"
#include "graph/graph.h"

namespace ksym {

/// Deterministic equivariant community labels: synchronous label
/// propagation for `iterations` rounds from interned-degree seeds, then a
/// final dense re-interning. Isolated vertices keep their seed label.
std::vector<uint32_t> CommunityLabels(const Graph& graph, uint32_t iterations);

/// The community-signature measure ("community-t<iterations>"): vertices
/// are indistinguishable iff they share a community and their
/// neighbourhoods have identical per-community counts.
StructuralMeasure CommunityMeasure(uint32_t iterations = 4);

}  // namespace ksym

#endif  // KSYM_ATTACK_COMMUNITY_H_
