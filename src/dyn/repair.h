// The partition checksum of the dynamic layer (DESIGN.md §15).
//
// A reanonymize epoch reports the checksum of the TDV partition it
// published, so a client can check that epoch against a from-scratch
// ComputeTotalDegreePartition of the same edge set without comparing
// release bytes. The checksum hashes what a refinement converges to (the
// canonical VertexPartition), not how it got there, so it is independent of
// the refiner's schedule and trace hash.

#ifndef KSYM_DYN_REPAIR_H_
#define KSYM_DYN_REPAIR_H_

#include <cstdint>

#include "aut/orbits.h"

namespace ksym {
namespace dyn {

/// Canonical content digest of a VertexPartition (cells are sorted and
/// min-ordered by construction) — the dynamic layer's partition identity,
/// used by the PlanCache and the reanonymize report.
uint64_t PartitionChecksum(const VertexPartition& partition);

}  // namespace dyn
}  // namespace ksym

#endif  // KSYM_DYN_REPAIR_H_
