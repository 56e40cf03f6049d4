// Tests for the ExecutionContext execution policy: the thread pool and
// deterministic ParallelFor, that a context's thread count never changes
// what the refinement-backed pipelines compute, that a reused refiner is
// deterministic, and the refinement stats it collects.

#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "aut/orbits.h"
#include "aut/refinement.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "ksym/anonymizer.h"

namespace ksym {
namespace {

TEST(ThreadPoolTest, RunInvokesEveryWorkerOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.Run([&hits](uint32_t worker) { ++hits[worker]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, RunIsReusable) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.Run([&total](uint32_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  ParallelFor(&pool, visits.size(),
              [&visits](size_t begin, size_t end, uint32_t) {
                for (size_t i = begin; i < end; ++i) ++visits[i];
              });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, ChunkingIsStatic) {
  // Shard s must always receive the same contiguous chunk: the evaluation
  // kernels' merge steps depend on shard-indexed outputs being ascending.
  ThreadPool pool(3);
  std::vector<uint32_t> shard_of(10, ~0u);
  ParallelFor(&pool, shard_of.size(),
              [&shard_of](size_t begin, size_t end, uint32_t shard) {
                for (size_t i = begin; i < end; ++i) shard_of[i] = shard;
              });
  // ceil(10/3) = 4: shards get [0,4), [4,8), [8,10).
  const std::vector<uint32_t> expected = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2};
  EXPECT_EQ(shard_of, expected);
}

TEST(ParallelForTest, NullPoolRunsInlineAsShardZero) {
  size_t calls = 0;
  ParallelFor(nullptr, 7, [&calls](size_t begin, size_t end, uint32_t shard) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 7u);
    EXPECT_EQ(shard, 0u);
  });
  EXPECT_EQ(calls, 1u);
  ParallelFor(nullptr, 0, [](size_t, size_t, uint32_t) { FAIL(); });
}

TEST(ExecutionContextTest, SequentialContextHasNoPool) {
  ExecutionContext context;
  EXPECT_TRUE(context.IsSequential());
  EXPECT_EQ(context.pool(), nullptr);
  ExecutionContext parallel(4);
  EXPECT_FALSE(parallel.IsSequential());
  ASSERT_NE(parallel.pool(), nullptr);
  EXPECT_EQ(parallel.pool()->num_threads(), 4u);
  EXPECT_EQ(parallel.pool(), parallel.pool());  // Built once, reused.
}

// A refiner's per-call state (counts, pending flags, worklist) is cleared
// as it is consumed, so reusing one refiner must repeat the first result.
TEST(RefinerReuseTest, RepeatedRefineIsDeterministic) {
  Rng rng(55);
  const Graph graph = BarabasiAlbert(800, 3, rng);
  Refiner refiner(graph);

  OrderedPartition first(graph.NumVertices(), {});
  const uint64_t first_hash = refiner.RefineAll(first);
  for (int repeat = 0; repeat < 5; ++repeat) {
    OrderedPartition again(graph.NumVertices(), {});
    EXPECT_EQ(refiner.RefineAll(again), first_hash);
    EXPECT_EQ(again.Cells(), first.Cells());
  }
}

TEST(ExecutionContextTest, OrbitAndAnonymizePipelinesMatchSequential) {
  Rng rng(21);
  const Graph graph = ErdosRenyiGnm(200, 380, rng);

  ExecutionContext context(4);
  EXPECT_TRUE(ComputeTotalDegreePartition(graph, &context) ==
              ComputeTotalDegreePartition(graph, nullptr));
  EXPECT_TRUE(ComputeAutomorphismPartition(graph, {}, &context) ==
              ComputeAutomorphismPartition(graph, {}, nullptr));

  AnonymizationOptions sequential_options;
  sequential_options.k = 3;
  sequential_options.use_total_degree_partition = true;
  AnonymizationOptions parallel_options = sequential_options;
  parallel_options.context = &context;

  const auto sequential = Anonymize(graph, sequential_options);
  const auto parallel = Anonymize(graph, parallel_options);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_TRUE(parallel->graph == sequential->graph);
  EXPECT_TRUE(parallel->partition == sequential->partition);
  EXPECT_EQ(parallel->vertices_added, sequential->vertices_added);
  EXPECT_EQ(parallel->edges_added, sequential->edges_added);
}

TEST(RefinementStatsTest, AnonymizePopulatesStats) {
  Rng rng(3);
  const Graph graph = BarabasiAlbert(300, 2, rng);
  AnonymizationOptions options;
  options.k = 2;
  options.use_total_degree_partition = true;
  const auto result = Anonymize(graph, options);
  ASSERT_TRUE(result.ok());
  // The TDV path refines at least once and splits the unit partition.
  EXPECT_GT(result->refinement.refine_calls, 0u);
  EXPECT_GT(result->refinement.cells_split, 0u);
  EXPECT_GT(result->refinement.splitters_processed, 0u);
  EXPECT_GE(result->refinement.partition_seconds, 0.0);
  EXPECT_GE(result->refinement.refine_seconds, 0.0);
  EXPECT_GE(result->refinement.copy_seconds, 0.0);
  // The partition phase contains the refine phase's time.
  EXPECT_GE(result->refinement.partition_seconds,
            result->refinement.refine_seconds);
}

TEST(RefinementStatsTest, CallerContextAccumulatesAcrossCalls) {
  Rng rng(17);
  const Graph graph = BarabasiAlbert(200, 2, rng);
  ExecutionContext context;  // Sequential policy, shared stats sink.
  AnonymizationOptions options;
  options.k = 2;
  options.use_total_degree_partition = true;
  options.context = &context;

  ASSERT_TRUE(Anonymize(graph, options).ok());
  const uint64_t after_one = context.stats().refine_calls;
  EXPECT_GT(after_one, 0u);
  ASSERT_TRUE(Anonymize(graph, options).ok());
  EXPECT_EQ(context.stats().refine_calls, 2 * after_one);
  context.ResetStats();
  EXPECT_EQ(context.stats().refine_calls, 0u);
}

TEST(RefinementApiTest, SingleEntryPointSignatures) {
  // Each refinement entry point has exactly one public signature (the
  // options-struct / ExecutionContext form); a null context must be the
  // sequential policy, not a distinct code path.
  Rng rng(11);
  const Graph graph = ErdosRenyiGnm(150, 300, rng);
  ExecutionContext sequential(1);
  EXPECT_EQ(EquitablePartition(graph, RefinementOptions{}),
            EquitablePartition(graph, RefinementOptions{.context = &sequential}));
  EXPECT_TRUE(ComputeTotalDegreePartition(graph, nullptr) ==
              ComputeTotalDegreePartition(graph, &sequential));
}

}  // namespace
}  // namespace ksym
