// Heap use of sybil recovery with many targets (DESIGN.md §14): the search's
// scratch must follow the report it returns, not the number of targets
// times |V|. The attack CLI and the daemon's `attack` op take up to
// min(2^sybils - 1, |V|) targets, so a per-target |V|-bit set per worker
// would grow quadratically with the graph.
//
// This binary replaces the global operator new and delete to count live
// heap bytes, which is why it is a binary of its own.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "gtest/gtest.h"

#include "attack/sybil.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "graph/generators.h"

namespace {

std::atomic<int64_t> live_bytes{0};
std::atomic<int64_t> peak_bytes{0};

// A 16-byte header keeps the default new alignment and records the size.
constexpr size_t kHeader = 16;

void* Allocate(size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<size_t*>(block) = size;
  const int64_t live =
      live_bytes.fetch_add(static_cast<int64_t>(size)) +
      static_cast<int64_t>(size);
  int64_t peak = peak_bytes.load();
  while (live > peak && !peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(block) + kHeader;
}

void Release(void* pointer) {
  if (pointer == nullptr) return;
  char* block = static_cast<char*>(pointer) - kHeader;
  const size_t size = *reinterpret_cast<size_t*>(block);
  live_bytes.fetch_sub(static_cast<int64_t>(size));
  std::free(block);
}

}  // namespace

void* operator new(size_t size) { return Allocate(size); }
void* operator new[](size_t size) { return Allocate(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* pointer) noexcept { Release(pointer); }
void operator delete[](void* pointer) noexcept { Release(pointer); }
void operator delete(void* pointer, size_t) noexcept { Release(pointer); }
void operator delete[](void* pointer, size_t) noexcept { Release(pointer); }
void operator delete(void* pointer, const std::nothrow_t&) noexcept {
  Release(pointer);
}
void operator delete[](void* pointer, const std::nothrow_t&) noexcept {
  Release(pointer);
}

namespace ksym {
namespace {

TEST(SybilMemoryTest, ScratchFollowsTheReportNotTargetsTimesVertices) {
  // As many targets as host vertices: 14 sybils give 16,383 fingerprints.
  constexpr size_t kVertices = 16000;
  Rng rng(3);
  const Graph host = BarabasiAlbert(kVertices, 2, rng);
  SybilPlantOptions options;
  options.num_sybils = 14;
  options.num_targets = kVertices;
  options.seed = 1;
  auto plant = PlantSybils(host, options);
  ASSERT_TRUE(plant.ok()) << plant.status().ToString();
  const SybilPlan& plan = plant->plan;
  const auto n = static_cast<int64_t>(plant->graph.NumVertices());
  const auto targets = static_cast<int64_t>(plan.targets.size());

  for (const uint32_t threads : {1u, 4u}) {
    ExecutionContext context(threads);
    context.pool();  // Start the workers outside the measured window.
    SybilRecoveryOptions recovery;
    recovery.context = &context;
    const int64_t before = live_bytes.load();
    peak_bytes.store(before);
    const SybilAttackReport report =
        RecoverSybils(plant->graph, plan, recovery);
    const int64_t peak = peak_bytes.load() - before;

    // The un-anonymized graph embeds the pattern once, which pins every
    // target: 16,000 one-vertex candidate sets.
    EXPECT_EQ(report.embeddings_found, 1u);
    ASSERT_EQ(report.candidate_sets.size(), plan.targets.size());
    int64_t candidates = 0;
    for (size_t t = 0; t < plan.targets.size(); ++t) {
      EXPECT_EQ(report.candidate_sets[t],
                std::vector<VertexId>{plan.targets[t]});
      candidates += static_cast<int64_t>(report.candidate_sets[t].size());
    }
    EXPECT_EQ(report.unique_reidentifications, plan.targets.size());

    // Per worker O(|V|) and O(1) per target, plus a constant per candidate
    // (the report included): 3.3 MB at 1 thread and 10.2 MB at 4 here. One
    // |V|-bit set per target per worker would take 32 MB per worker.
    const int64_t bound =
        threads * (16 * n + 128 * targets) + 64 * candidates;
    EXPECT_LT(peak, bound) << threads << " threads";
  }
}

}  // namespace
}  // namespace ksym
