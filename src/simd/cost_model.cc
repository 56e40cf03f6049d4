#include "simd/cost_model.h"

#include <cmath>
#include <cstring>

#include "common/check.h"

namespace ksym {
namespace simd {
namespace {

// Shared first-order machine constants. These are deliberately coarse —
// the CI band check tolerates an order of magnitude — but each term maps
// to a real mechanism so drift points at a real change.
constexpr double kMispredictPenalty = 15.0;  // Cycles per mispredicted branch.
constexpr double kGatherPerLane = 1.3;       // Amortized gathered-load cycles.
constexpr double kL1LoadCost = 0.5;          // Amortized L1 hit, 2 ports.

// --- Sorted intersection.
//
// Scalar merge: one advance per step, ~na + nb steps; each step is a pair
// of loads, a compare, and a data-dependent three-way branch that on
// random overlap mispredicts about half the time.
CycleCost IntersectScalarCost(const CostParams& p) {
  const double steps = static_cast<double>(p.na + p.nb);
  return {steps * (2.0 * kL1LoadCost + 2.0 + 0.5 * kMispredictPenalty)};
}

// Block variants: each block iteration advances >= L elements of the
// combined input, paying L rotation-compares, the OR reduction, a
// movemask, the table-driven compaction, and one mostly-predictable
// advance branch.
CycleCost IntersectBlockCost(const CostParams& p, double lanes,
                             double per_block) {
  const double blocks = static_cast<double>(p.na + p.nb) / lanes;
  return {blocks * per_block};
}
CycleCost IntersectSse42Cost(const CostParams& p) {
  // 4 cmp + 3 shuffles + 3 or + movemask + pshufb + store + loop ~= 18.
  return IntersectBlockCost(p, 4.0, 18.0);
}
CycleCost IntersectAvx2Cost(const CostParams& p) {
  // 8 cmp + 7 permutes + 7 or + movemask + permute + store + loop ~= 28.
  return IntersectBlockCost(p, 8.0, 28.0);
}
CycleCost IntersectNeonCost(const CostParams& p) {
  // 4 cmp + 3 ext + 3 orr + scalar lane compaction ~= 22 per 4 lanes.
  return IntersectBlockCost(p, 4.0, 22.0);
}

// Galloping: the short list drives; each element costs the exponential
// probe plus a binary search over the bounded window, all data-dependent
// branches (~half mispredict) on top of ~log2(max/min) compares.
CycleCost IntersectGallopCost(const CostParams& p) {
  const double lo = static_cast<double>(p.na < p.nb ? p.na : p.nb);
  const double hi = static_cast<double>(p.na < p.nb ? p.nb : p.na);
  if (lo == 0.0) return {1.0};
  const double probes = std::log2(hi / lo + 2.0) + 2.0;
  return {lo * probes * (kL1LoadCost + 1.0 + 0.5 * kMispredictPenalty)};
}

// --- BFS frontier expansion (per neighbor slot; hits add the write +
// queue append).
CycleCost BfsExpandScalarCost(const CostParams& p) {
  const double h = p.hit_fraction;
  const double mispredict_rate = h < 0.5 ? h : 1.0 - h;
  const double per_slot =
      2.0 + kL1LoadCost + mispredict_rate * kMispredictPenalty;
  return {static_cast<double>(p.arcs) * per_slot +
          static_cast<double>(p.arcs) * h * 3.0};
}
CycleCost BfsExpandSse42Cost(const CostParams& p) {
  // Branchless mask build over 4 lanes, one branch per block.
  const double h = p.hit_fraction;
  return {static_cast<double>(p.arcs) * 2.2 +
          static_cast<double>(p.arcs) * h * 5.0};
}
CycleCost BfsExpandAvx2Cost(const CostParams& p) {
  // One 4-lane gather + movemask per block: ~gather bound when clean.
  const double h = p.hit_fraction;
  return {static_cast<double>(p.arcs) * (kGatherPerLane + 0.3) +
          static_cast<double>(p.arcs) * h * 6.0};
}
CycleCost BfsExpandNeonCost(const CostParams& p) {
  const double h = p.hit_fraction;
  return {static_cast<double>(p.arcs) * 2.4 +
          static_cast<double>(p.arcs) * h * 5.0};
}

constexpr KernelCostEntry kTable[] = {
    {"intersect", SimdLevel::kScalar, IntersectScalarCost},
    {"intersect", SimdLevel::kSse42, IntersectSse42Cost},
    {"intersect", SimdLevel::kAvx2, IntersectAvx2Cost},
    {"intersect", SimdLevel::kNeon, IntersectNeonCost},
    {"intersect_gallop", SimdLevel::kScalar, IntersectGallopCost},
    {"intersect_gallop", SimdLevel::kSse42, IntersectGallopCost},
    {"intersect_gallop", SimdLevel::kAvx2, IntersectGallopCost},
    {"intersect_gallop", SimdLevel::kNeon, IntersectGallopCost},
    {"bfs_expand", SimdLevel::kScalar, BfsExpandScalarCost},
    {"bfs_expand", SimdLevel::kSse42, BfsExpandSse42Cost},
    {"bfs_expand", SimdLevel::kAvx2, BfsExpandAvx2Cost},
    {"bfs_expand", SimdLevel::kNeon, BfsExpandNeonCost},
};

}  // namespace

std::span<const KernelCostEntry> CostModelTable() { return kTable; }

const KernelCostEntry* FindKernelCost(const char* kernel, SimdLevel level) {
  for (const KernelCostEntry& entry : kTable) {
    if (entry.level == level && std::strcmp(entry.kernel, kernel) == 0) {
      return &entry;
    }
  }
  return nullptr;
}

CycleCost PredictCycles(const char* kernel, SimdLevel level,
                        const CostParams& params) {
  const KernelCostEntry* entry = FindKernelCost(kernel, level);
  KSYM_CHECK(entry != nullptr);
  return entry->estimate(params);
}

}  // namespace simd
}  // namespace ksym
