#include "simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace ksym {
namespace simd {
namespace {

std::atomic<uint64_t> g_counts[4] = {};

SimdLevel ProbeLevel() {
#if defined(__aarch64__) || defined(_M_ARM64)
  return SimdLevel::kNeon;  // NEON is baseline on AArch64.
#elif defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  if (__builtin_cpu_supports("sse4.2")) return SimdLevel::kSse42;
  return SimdLevel::kScalar;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel InitialLevel() {
  SimdLevel level = ProbeLevel();
  const char* env = std::getenv("KSYM_SIMD_LEVEL");
  if (env != nullptr) {
    SimdLevel requested;
    if (ParseSimdLevel(env, requested) && SimdLevelSupported(requested)) {
      level = requested;
    }
    // Unknown or unsupported names keep the hardware pick: forcing an
    // unavailable tier would either crash (SIGILL) or silently lie, and
    // CI's level matrix probes support before exporting the variable.
  }
  return level;
}

std::atomic<SimdLevel>& ActiveLevelSlot() {
  static std::atomic<SimdLevel> slot(InitialLevel());
  return slot;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kSse42: return "sse42";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kNeon: return "neon";
  }
  return "unknown";
}

bool ParseSimdLevel(const char* name, SimdLevel& out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) { out = SimdLevel::kScalar; return true; }
  if (std::strcmp(name, "sse42") == 0) { out = SimdLevel::kSse42; return true; }
  if (std::strcmp(name, "avx2") == 0) { out = SimdLevel::kAvx2; return true; }
  if (std::strcmp(name, "neon") == 0) { out = SimdLevel::kNeon; return true; }
  return false;
}

bool SimdLevelSupported(SimdLevel level) {
  if (level == SimdLevel::kScalar) return true;
  const SimdLevel max = ProbeLevel();
  if (level == SimdLevel::kNeon || max == SimdLevel::kNeon) {
    return level == max;  // NEON never mixes with the x86 tiers.
  }
  return static_cast<uint8_t>(level) <= static_cast<uint8_t>(max);
}

SimdLevel MaxSupportedSimdLevel() { return ProbeLevel(); }

SimdLevel ActiveSimdLevel() {
  return ActiveLevelSlot().load(std::memory_order_relaxed);
}

SimdLevel SetSimdLevelForTesting(SimdLevel level) {
  if (!SimdLevelSupported(level)) level = ProbeLevel();
  ActiveLevelSlot().store(level, std::memory_order_relaxed);
  return level;
}

void AddSimdCalls(SimdKernel kernel, uint64_t n) {
  if (n == 0) return;
  g_counts[static_cast<size_t>(kernel)].fetch_add(n,
                                                  std::memory_order_relaxed);
}

SimdCallCounts SimdCallCountsSnapshot() {
  SimdCallCounts counts;
  counts.intersect = g_counts[0].load(std::memory_order_relaxed);
  counts.intersect_gallop = g_counts[1].load(std::memory_order_relaxed);
  counts.splitter_scalar = g_counts[2].load(std::memory_order_relaxed);
  counts.bfs_expand = g_counts[3].load(std::memory_order_relaxed);
  return counts;
}

}  // namespace simd
}  // namespace ksym
