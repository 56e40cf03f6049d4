// Analytical cycle-cost estimators for the SIMD kernels, poplibs-style
// (DESIGN.md §13): every dispatched kernel registers a small first-order
// model — lane width, per-step instruction cost, branch-mispredict terms —
// in one table, and bench_perf_micro's BM_Simd* family emits the
// predicted-vs-measured cycle ratio for each (kernel, level) row into
// BENCH_pr*.json. CI fails when a ratio drifts outside a generous band:
// the models are honesty checks on the kernels' cost claims (and the
// kernels are drift checks on the models), not cycle-exact simulators.

#ifndef KSYM_SIMD_COST_MODEL_H_
#define KSYM_SIMD_COST_MODEL_H_

#include <cstddef>
#include <span>

#include "simd/simd.h"

namespace ksym {
namespace simd {

/// Workload description shared by all estimators; kernels read the fields
/// they need and ignore the rest.
struct CostParams {
  size_t na = 0;       // Intersection: length of the first list.
  size_t nb = 0;       // Intersection: length of the second list.
  size_t arcs = 0;     // BFS: neighbor slots tested.
  double hit_fraction = 0.0;  // BFS: fraction of tests that discover.
};

/// A predicted cost in CPU core cycles (frequency-independent, unlike
/// nanoseconds — the bench converts measurements with rdtsc).
struct CycleCost {
  double cycles = 0.0;
};

/// One registered estimator. Kernel names are stable identifiers used by
/// the bench JSON and the CI band check: "intersect", "intersect_gallop",
/// "bfs_expand".
struct KernelCostEntry {
  const char* kernel;
  SimdLevel level;
  CycleCost (*estimate)(const CostParams& params);
};

/// The full registry: every (kernel, level) pair with an implementation,
/// including the compile-gated NEON rows (registered unconditionally; they
/// describe the AArch64 build).
std::span<const KernelCostEntry> CostModelTable();

/// Looks up the entry for (kernel, level); nullptr when unregistered.
const KernelCostEntry* FindKernelCost(const char* kernel, SimdLevel level);

/// Convenience: estimate via the registry. CHECK-fails on unknown rows —
/// an unregistered kernel in a bench is a wiring bug, not a soft error.
CycleCost PredictCycles(const char* kernel, SimdLevel level,
                        const CostParams& params);

}  // namespace simd
}  // namespace ksym

#endif  // KSYM_SIMD_COST_MODEL_H_
