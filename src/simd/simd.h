// Runtime SIMD dispatch for the hot kernels (DESIGN.md §13).
//
// The flat CSR layout (DESIGN.md §7) lets two dominant inner loops —
// sorted-neighbor intersection (triangles / clustering) and BFS frontier
// expansion — run vectorized. Each kernel in src/simd/ ships scalar,
// SSE4.2, and AVX2 implementations (NEON compile-time-gated on aarch64),
// selected once at startup by a CPUID probe that the KSYM_SIMD_LEVEL
// environment variable can lower ("scalar" | "sse42" | "avx2" | "neon"):
// sanitizer CI and the differential tests force every path on one machine.
//
// Contract every vectorized path obeys: it produces results *bit-identical*
// to the scalar loop it replaces — identical integer sums, identical output
// sequences — at every level and thread count. The vector variants only
// reassociate commutative integer reductions and hoist comparisons; no
// floating-point operation is ever reordered (DESIGN.md §7/§8/§13).

#ifndef KSYM_SIMD_SIMD_H_
#define KSYM_SIMD_SIMD_H_

#include <cstdint>

namespace ksym {
namespace simd {

/// Instruction-set tiers, ordered so that higher values strictly extend
/// lower ones on the same architecture. kNeon is its own arm64 tier: the
/// x86 probe never returns it and the arm64 probe never returns the x86
/// tiers.
enum class SimdLevel : uint8_t {
  kScalar = 0,
  kSse42 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// Human-readable level name ("scalar", "sse42", "avx2", "neon").
const char* SimdLevelName(SimdLevel level);

/// Parses a level name as accepted in KSYM_SIMD_LEVEL. Returns false (and
/// leaves `out` untouched) on an unknown name.
bool ParseSimdLevel(const char* name, SimdLevel& out);

/// True iff this machine can execute `level` (kScalar is always true).
bool SimdLevelSupported(SimdLevel level);

/// The highest level the hardware supports, ignoring the environment.
SimdLevel MaxSupportedSimdLevel();

/// The level all dispatched kernels use: min(KSYM_SIMD_LEVEL if set and
/// parseable, hardware maximum). Probed once on first use; subsequent env
/// changes are ignored (use SetSimdLevelForTesting to switch in-process).
SimdLevel ActiveSimdLevel();

/// Overrides ActiveSimdLevel() for the rest of the process (clamped to the
/// hardware maximum; returns the level actually installed). Test-only by
/// convention: production code dispatches once and never switches.
SimdLevel SetSimdLevelForTesting(SimdLevel level);

/// Cumulative dispatched-kernel invocation counters, so a live daemon's
/// active code paths are observable (ksym_serve's stats op prints these).
/// Counting happens at kernel-user granularity — one add per TriangleCounts
/// range / CountSplitter call / BFS — never per element, so the relaxed
/// atomics stay off the hot path.
struct SimdCallCounts {
  uint64_t intersect = 0;        // Sorted-intersection merge/block calls.
  uint64_t intersect_gallop = 0; // Skewed pairs routed to the galloping variant.
  uint64_t splitter_dense = 0;   // Always 0: no dense splitter kernel.
  uint64_t splitter_scalar = 0;  // Refinement splitter counting passes.
  uint64_t bfs_expand = 0;       // BFS runs through the batched frontier expander.
};

enum class SimdKernel : uint8_t {
  kIntersect = 0,
  kIntersectGallop = 1,
  kSplitterScalar = 2,
  kBfsExpand = 3,
};

/// Adds `n` to the cumulative counter for `kernel` (relaxed; thread-safe).
void AddSimdCalls(SimdKernel kernel, uint64_t n);

/// A consistent-enough snapshot of the cumulative counters (each field is
/// an atomic load; fields may straddle concurrent updates).
SimdCallCounts SimdCallCountsSnapshot();

}  // namespace simd
}  // namespace ksym

#endif  // KSYM_SIMD_SIMD_H_
