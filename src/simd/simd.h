// Kernel call counters (DESIGN.md §13).
//
// The triangle and BFS loops in graph/algorithms.cc and the refiner's
// splitter count in aut/neighbor_source.cc are plain scalar loops; there
// is no vector path and no runtime dispatch. What is left here is kept
// because the repository benchmark (perfbench/) reads it: the cumulative
// call counters behind its `simd.*` metrics and the level name in its run
// metadata. ksym_serve's stats op prints the counters too.

#ifndef KSYM_SIMD_SIMD_H_
#define KSYM_SIMD_SIMD_H_

#include <cstdint>

namespace ksym {
namespace simd {

/// Kept for the benchmark's run metadata: the one level there is.
enum class SimdLevel : uint8_t { kScalar = 0 };

/// Kept for the benchmark's run metadata: always "scalar".
inline const char* SimdLevelName(SimdLevel) { return "scalar"; }

/// Kept for the benchmark's run metadata: always kScalar.
inline SimdLevel ActiveSimdLevel() { return SimdLevel::kScalar; }

/// Kept for the benchmark: cumulative kernel invocation counters. Counting
/// happens at kernel-user granularity — one add per TriangleCounts range /
/// CountSplitter call / BFS — never per element, so the relaxed atomics
/// stay off the hot path.
struct SimdCallCounts {
  uint64_t intersect = 0;         // Vertex pairs whose suffixes were merged.
  uint64_t intersect_gallop = 0;  // Always 0: kept for the benchmark.
  uint64_t splitter_dense = 0;    // Always 0: kept for the benchmark.
  uint64_t splitter_scalar = 0;   // Refinement splitter counting passes.
  uint64_t bfs_expand = 0;        // BFS runs and PairDistance searches.
};

enum class SimdKernel : uint8_t {
  kIntersect = 0,
  kSplitterScalar = 1,
  kBfsExpand = 2,
};

/// Kept for the benchmark: adds `n` to the cumulative counter for `kernel`
/// (relaxed; thread-safe).
void AddSimdCalls(SimdKernel kernel, uint64_t n);

/// Kept for the benchmark: a consistent-enough snapshot of the cumulative
/// counters (each field is an atomic load; fields may straddle concurrent
/// updates).
SimdCallCounts SimdCallCountsSnapshot();

}  // namespace simd
}  // namespace ksym

#endif  // KSYM_SIMD_SIMD_H_
