// Differential / property suite for the runtime-dispatched SIMD kernels
// (src/simd/, DESIGN.md §13). The contract under test is bit-identity:
// every vectorized variant must produce byte-identical results to the
// scalar loop it replaces — intersection outputs, triangle counts,
// clustering doubles, BFS distance arrays AND queue orders — at every
// KSYM_SIMD_LEVEL and thread count.
// Levels the host cannot execute are skipped (SupportedLevels); CI runs
// the whole suite per level via the env override as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "simd/bfs.h"
#include "simd/cost_model.h"
#include "simd/intersect.h"
#include "simd/simd.h"

namespace ksym {
namespace {

using simd::SimdLevel;

/// Installs a level for the enclosing scope, restoring the previous one on
/// exit so tests stay order-independent.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : previous_(simd::ActiveSimdLevel()),
        installed_(simd::SetSimdLevelForTesting(level)) {}
  ~ScopedSimdLevel() { simd::SetSimdLevelForTesting(previous_); }
  SimdLevel installed() const { return installed_; }

 private:
  SimdLevel previous_;
  SimdLevel installed_;
};

std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  for (SimdLevel level :
       {SimdLevel::kSse42, SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (simd::SimdLevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

std::vector<uint32_t> SortedUnique(std::vector<uint32_t> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

std::vector<uint32_t> RandomSortedUnique(Rng& rng, size_t target,
                                         uint32_t universe) {
  std::vector<uint32_t> values;
  values.reserve(target);
  for (size_t i = 0; i < target; ++i) {
    values.push_back(static_cast<uint32_t>(rng.NextBounded(universe)));
  }
  return SortedUnique(std::move(values));
}

/// Checks every intersection variant at every supported level against
/// std::set_intersection, in both argument orders.
void ExpectIntersectionMatches(const std::vector<uint32_t>& a,
                               const std::vector<uint32_t>& b) {
  std::vector<uint32_t> expect;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expect));
  const size_t cap =
      std::min(a.size(), b.size()) + simd::kIntersectOutPadding;
  std::vector<uint32_t> out(cap);
  const auto check = [&](size_t got, const char* what) {
    ASSERT_EQ(got, expect.size()) << what;
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), out.begin()))
        << what;
  };
  for (const auto& [x, y] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
    check(simd::IntersectSortedScalar(x->data(), x->size(), y->data(),
                                      y->size(), out.data()),
          "scalar merge");
    check(simd::IntersectSortedGallop(x->data(), x->size(), y->data(),
                                      y->size(), out.data()),
          "gallop");
    for (SimdLevel level : SupportedLevels()) {
      check(simd::IntersectSortedBlock(level, x->data(), x->size(),
                                       y->data(), y->size(), out.data()),
            simd::SimdLevelName(level));
    }
  }
}

TEST(SimdDispatch, LevelNamesRoundTrip) {
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kSse42,
                          SimdLevel::kAvx2, SimdLevel::kNeon}) {
    SimdLevel parsed = SimdLevel::kScalar;
    ASSERT_TRUE(simd::ParseSimdLevel(simd::SimdLevelName(level), parsed));
    EXPECT_EQ(parsed, level);
  }
  SimdLevel parsed = SimdLevel::kAvx2;
  EXPECT_FALSE(simd::ParseSimdLevel("avx512-or-bust", parsed));
  EXPECT_EQ(parsed, SimdLevel::kAvx2);  // Untouched on failure.
}

TEST(SimdDispatch, TestOverrideClampsToHardware) {
  const SimdLevel max = simd::MaxSupportedSimdLevel();
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    EXPECT_EQ(scoped.installed(), level);
    EXPECT_EQ(simd::ActiveSimdLevel(), level);
  }
  // Requesting an unsupported tier installs the hardware maximum instead.
  if (!simd::SimdLevelSupported(SimdLevel::kNeon)) {
    ScopedSimdLevel scoped(SimdLevel::kNeon);
    EXPECT_EQ(scoped.installed(), max);
  }
}

TEST(SimdIntersect, AdversarialCases) {
  const std::vector<uint32_t> empty;
  const std::vector<uint32_t> one{7};
  const std::vector<uint32_t> evens = [] {
    std::vector<uint32_t> v;
    for (uint32_t i = 0; i < 200; ++i) v.push_back(2 * i);
    return v;
  }();
  const std::vector<uint32_t> odds = [] {
    std::vector<uint32_t> v;
    for (uint32_t i = 0; i < 200; ++i) v.push_back(2 * i + 1);
    return v;
  }();
  ExpectIntersectionMatches(empty, empty);
  ExpectIntersectionMatches(empty, evens);
  ExpectIntersectionMatches(one, evens);  // Miss: 7 is odd.
  ExpectIntersectionMatches(one, odds);   // Hit.
  ExpectIntersectionMatches(evens, odds);   // Fully disjoint, interleaved.
  ExpectIntersectionMatches(evens, evens);  // Identical lists.

  // Highly skewed: a few probes into a long run, hitting the run's ends
  // and middle — the galloping variant's window edges.
  std::vector<uint32_t> run(10000);
  for (uint32_t i = 0; i < run.size(); ++i) run[i] = 3 * i;
  ExpectIntersectionMatches({0}, run);
  ExpectIntersectionMatches({run.back()}, run);
  ExpectIntersectionMatches({1, 14999, 15000, 29997, 30001}, run);

  // Duplicate-free max-degree "hubs": long lists with heavy but partial
  // overlap, lengths straddling block boundaries.
  Rng rng(2024);
  for (const size_t na : {size_t{31}, size_t{32}, size_t{33}, size_t{1000}}) {
    for (const size_t nb : {size_t{7}, size_t{64}, size_t{1001}}) {
      ExpectIntersectionMatches(RandomSortedUnique(rng, na, 4096),
                                RandomSortedUnique(rng, nb, 4096));
    }
  }
}

TEST(SimdIntersect, RandomizedAgainstSetIntersection) {
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    const size_t na = rng.NextBounded(70);
    const size_t nb = rng.NextBounded(70);
    // Small universes force dense overlap; large ones force misses.
    const uint32_t universe =
        static_cast<uint32_t>(1 + rng.NextBounded(300));
    ExpectIntersectionMatches(RandomSortedUnique(rng, na, universe),
                              RandomSortedUnique(rng, nb, universe));
  }
}

TEST(SimdBfs, ExpandMatchesScalarOrderAndDistances) {
  Rng rng(13);
  const size_t n = 1024;
  for (int round = 0; round < 50; ++round) {
    std::vector<int64_t> base(n);
    for (size_t i = 0; i < n; ++i) {
      base[i] = rng.NextBounded(3) == 0 ? -1 : static_cast<int64_t>(i % 5);
    }
    const std::vector<uint32_t> nbrs = RandomSortedUnique(
        rng, rng.NextBounded(200), static_cast<uint32_t>(n));

    std::vector<int64_t> dist_scalar = base;
    std::vector<uint32_t> out_scalar;
    simd::ExpandNeighbors(SimdLevel::kScalar, nbrs.data(), nbrs.size(), 42,
                          dist_scalar.data(), out_scalar);
    for (SimdLevel level : SupportedLevels()) {
      std::vector<int64_t> dist = base;
      std::vector<uint32_t> out;
      simd::ExpandNeighbors(level, nbrs.data(), nbrs.size(), 42,
                            dist.data(), out);
      EXPECT_EQ(dist, dist_scalar) << simd::SimdLevelName(level);
      EXPECT_EQ(out, out_scalar) << simd::SimdLevelName(level);
    }
  }
}

/// End-to-end fixtures: random graphs exercised through the public
/// entry points at every level × thread count, against the scalar
/// sequential baseline.
class SimdGraphEquivalenceTest : public ::testing::Test {
 protected:
  static std::vector<Graph> TestGraphs() {
    std::vector<Graph> graphs;
    Rng rng(4242);
    graphs.push_back(ErdosRenyiGnm(500, 3000, rng));  // Dense.
    graphs.push_back(ErdosRenyiGnm(300, 450, rng));   // Sparse.
    graphs.push_back(BarabasiAlbert(400, 5, rng));    // Skewed degrees:
                                                      // gallop territory.
    return graphs;
  }
};

TEST_F(SimdGraphEquivalenceTest, TriangleAndClusteringBitIdentical) {
  for (const Graph& graph : TestGraphs()) {
    std::vector<uint64_t> tri_base;
    std::vector<double> cc_base;
    {
      ScopedSimdLevel scoped(SimdLevel::kScalar);
      tri_base = TriangleCounts(graph);
      cc_base = ClusteringCoefficients(graph);
    }
    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel scoped(level);
      for (const uint32_t threads : {1u, 2u, 4u}) {
        const ExecutionContext context(threads);
        EXPECT_EQ(TriangleCounts(graph, &context), tri_base)
            << simd::SimdLevelName(level) << " x" << threads;
        const std::vector<double> cc =
            ClusteringCoefficients(graph, &context);
        ASSERT_EQ(cc.size(), cc_base.size());
        EXPECT_EQ(0, std::memcmp(cc.data(), cc_base.data(),
                                 cc.size() * sizeof(double)))
            << simd::SimdLevelName(level) << " x" << threads;
      }
    }
  }
}

TEST_F(SimdGraphEquivalenceTest, BfsDistAndQueueBitIdentical) {
  for (const Graph& graph : TestGraphs()) {
    std::vector<int64_t> dist_base, dist;
    std::vector<VertexId> queue_base, queue;
    for (const VertexId source : {VertexId{0}, VertexId{17}}) {
      {
        ScopedSimdLevel scoped(SimdLevel::kScalar);
        BfsDistancesInto(graph, source, dist_base, queue_base);
      }
      for (SimdLevel level : SupportedLevels()) {
        ScopedSimdLevel scoped(level);
        BfsDistancesInto(graph, source, dist, queue);
        EXPECT_EQ(dist, dist_base) << simd::SimdLevelName(level);
        EXPECT_EQ(queue, queue_base) << simd::SimdLevelName(level);
      }
    }
  }
}

TEST(SimdCostModel, RegistryCoversEveryKernelAndLevel) {
  const char* kernels[] = {"intersect", "intersect_gallop", "bfs_expand"};
  for (const char* kernel : kernels) {
    for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kSse42,
                            SimdLevel::kAvx2, SimdLevel::kNeon}) {
      ASSERT_NE(simd::FindKernelCost(kernel, level), nullptr)
          << kernel << "/" << simd::SimdLevelName(level);
      simd::CostParams params;
      params.na = 1000;
      params.nb = 500;
      params.arcs = 1500;
      params.hit_fraction = 0.25;
      EXPECT_GT(simd::PredictCycles(kernel, level, params).cycles, 0.0)
          << kernel << "/" << simd::SimdLevelName(level);
    }
  }
}

}  // namespace
}  // namespace ksym
