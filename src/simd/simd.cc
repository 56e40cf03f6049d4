#include "simd/simd.h"

#include <atomic>
#include <cstddef>

namespace ksym {
namespace simd {
namespace {

std::atomic<uint64_t> g_counts[3] = {};

}  // namespace

void AddSimdCalls(SimdKernel kernel, uint64_t n) {
  if (n == 0) return;
  g_counts[static_cast<size_t>(kernel)].fetch_add(n,
                                                  std::memory_order_relaxed);
}

SimdCallCounts SimdCallCountsSnapshot() {
  SimdCallCounts counts;
  counts.intersect = g_counts[0].load(std::memory_order_relaxed);
  counts.splitter_scalar = g_counts[1].load(std::memory_order_relaxed);
  counts.bfs_expand = g_counts[2].load(std::memory_order_relaxed);
  return counts;
}

}  // namespace simd
}  // namespace ksym
