// Batched BFS frontier expansion (DESIGN.md §13): the inner loop of
// BfsDistancesInto (graph/algorithms.cc), feeding the stats/ path samplers
// and diameter summaries.
//
// The scalar loop tests dist[w] < 0 per neighbor and branches; once a BFS
// is a few levels in, almost every neighbor is already visited, so the
// vector variants gather blocks of distance slots, test the whole block
// for any unvisited lane, and skip fully-visited blocks without branching
// per element. Unvisited lanes are then settled scalar, in lane order —
// the exact order the scalar loop would have discovered them — so dist
// AND the appended queue suffix are byte-identical at every level.

#ifndef KSYM_SIMD_BFS_H_
#define KSYM_SIMD_BFS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simd/simd.h"

namespace ksym {
namespace simd {

/// For each w in nbrs[0..n): if dist[w] < 0, set dist[w] = dist_value and
/// append w to `out` (discovery order = array order, all variants).
/// `out` must have reserved capacity for its final size (the BFS drivers
/// reserve NumVertices up front): growth is via push_back, but callers rely
/// on stable data pointers for dist, not out.
void ExpandNeighbors(SimdLevel level, const uint32_t* nbrs, size_t n,
                     int64_t dist_value, int64_t* dist,
                     std::vector<uint32_t>& out);

}  // namespace simd
}  // namespace ksym

#endif  // KSYM_SIMD_BFS_H_
