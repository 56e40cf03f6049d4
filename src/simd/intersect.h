// Sorted-u32 set intersection — the inner loop of triangle counting and
// clustering (graph/algorithms.cc), the dominant cost of the paper's §5
// utility evaluation.
//
// Inputs are strictly increasing uint32 ranges (CSR neighbor lists are
// sorted and duplicate-free). Every variant writes the common values, in
// ascending order, to `out` and returns how many it wrote. The output
// sequence is the intersection *set* in sorted order, so it is identical
// across variants by construction; callers turn it into triangle-corner
// credits with commutative integer adds, which keeps the whole pipeline
// bit-identical to the scalar merge (DESIGN.md §13).
//
// `out` must have capacity min(na, nb) + kIntersectOutPadding: the block
// variants compact matches with full-width vector stores, so up to one
// vector of don't-care lanes lands past the last match.

#ifndef KSYM_SIMD_INTERSECT_H_
#define KSYM_SIMD_INTERSECT_H_

#include <cstddef>
#include <cstdint>

#include "simd/simd.h"

namespace ksym {
namespace simd {

/// Slack every intersection output buffer needs past min(na, nb): the
/// widest block variant stores 8 lanes at the compaction cursor.
inline constexpr size_t kIntersectOutPadding = 8;

/// The verbatim two-pointer merge (the pre-SIMD loop).
size_t IntersectSortedScalar(const uint32_t* a, size_t na, const uint32_t* b,
                             size_t nb, uint32_t* out);

/// Galloping variant for skewed pairs: walks the shorter list, doubling
/// then binary-searching into the longer one. O(min * log(max)); profitable
/// once PreferGallop holds. Works at every level (the search is branch
/// structure, not lane math).
size_t IntersectSortedGallop(const uint32_t* a, size_t na, const uint32_t* b,
                             size_t nb, uint32_t* out);

/// Block-compare variant at an explicit level: 4-lane (SSE4.2 / NEON) or
/// 8-lane (AVX2) all-pairs rotation compares with table-driven compaction;
/// kScalar falls through to IntersectSortedScalar.
size_t IntersectSortedBlock(SimdLevel level, const uint32_t* a, size_t na,
                            const uint32_t* b, size_t nb, uint32_t* out);

/// True when the size skew favors the galloping variant over block merge.
inline bool PreferGallop(size_t na, size_t nb) {
  constexpr size_t kGallopRatio = 32;
  const size_t lo = na < nb ? na : nb;
  const size_t hi = na < nb ? nb : na;
  return lo * kGallopRatio < hi;
}

/// Fully dispatched entry point: ActiveSimdLevel() + PreferGallop.
size_t IntersectSorted(const uint32_t* a, size_t na, const uint32_t* b,
                       size_t nb, uint32_t* out);

}  // namespace simd
}  // namespace ksym

#endif  // KSYM_SIMD_INTERSECT_H_
