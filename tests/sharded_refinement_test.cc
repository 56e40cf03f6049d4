// Tests for the out-of-core refinement seam (DESIGN.md §11): the sharded
// equitable partition and TDV computation must be bit-identical — cells AND
// trace hash — to the in-memory path at every shard count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "aut/orbits.h"
#include "aut/refinement.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "shard/partitioner.h"
#include "shard/refine.h"
#include "shard/sharded_graph.h"

namespace ksym {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// ER core with degree skew plus a cycle tail: several refinement rounds,
/// non-trivial cells, and shard boundaries that cut through hubs.
Graph MakeRefinementGraph() {
  Rng rng(2026);
  const Graph core = ErdosRenyiGnm(120, 420, rng);
  const Graph tail = MakeCycle(13);
  return DisjointUnion(core, tail);
}

std::string SplitToTemp(const Graph& graph, uint32_t num_shards,
                        const std::string& tag) {
  PartitionOptions options;
  options.num_shards = num_shards;
  const std::string prefix = TempPath("refine_" + tag);
  const auto manifest = Partitioner::Split(graph, {}, options, prefix);
  EXPECT_TRUE(manifest.ok()) << manifest.status();
  return prefix + ".manifest";
}

TEST(ShardedRefinementTest, MatchesInMemoryAcrossShardCounts) {
  const Graph graph = MakeRefinementGraph();

  uint64_t expected_trace = 0;
  const auto expected_cells = EquitablePartition(
      graph, RefinementOptions{.trace_hash = &expected_trace});
  ASSERT_NE(expected_trace, 0u);
  ASSERT_GT(expected_cells.size(), 1u);

  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    const std::string manifest =
        SplitToTemp(graph, shards, "eq_" + std::to_string(shards));
    const auto sharded = ShardedGraph::Open(manifest);
    ASSERT_TRUE(sharded.ok()) << sharded.status();

    uint64_t trace = 0;
    const auto cells = ShardedEquitablePartition(
        *sharded, RefinementOptions{.trace_hash = &trace});
    EXPECT_EQ(cells, expected_cells);
    EXPECT_EQ(trace, expected_trace);
  }
}

TEST(ShardedRefinementTest, TotalDegreePartitionMatchesInMemory) {
  const Graph graph = MakeRefinementGraph();
  uint64_t expected_trace = 0;
  const VertexPartition expected =
      ComputeTotalDegreePartition(graph, nullptr, &expected_trace);

  const std::string manifest = SplitToTemp(graph, 3, "tdv");
  const auto sharded = ShardedGraph::Open(manifest);
  ASSERT_TRUE(sharded.ok()) << sharded.status();

  uint64_t trace = 0;
  const VertexPartition tdv =
      ShardedTotalDegreePartition(*sharded, nullptr, &trace);
  EXPECT_EQ(tdv, expected);
  EXPECT_EQ(tdv.cell_of, expected.cell_of);
  EXPECT_EQ(trace, expected_trace);
}

/// A 2,000-vertex configuration-model graph with a truncated Pareto degree
/// sequence of exponent 2.1: its first splitter, the unit cell, touches
/// far more vertices than SortSplitKeys sorts without the radix tier.
Graph MakePowerLawGraph() {
  Rng rng(2028);
  std::vector<size_t> degrees(2000);
  size_t sum = 0;
  for (size_t& d : degrees) {
    const double x = std::pow(1.0 - rng.NextDouble(), -1.0 / 1.1);
    d = std::clamp<size_t>(static_cast<size_t>(x), 1, 100);
    sum += d;
  }
  if (sum % 2 == 1) ++degrees[0];
  auto graph = ConfigurationModel(degrees, rng);
  EXPECT_TRUE(graph.ok()) << graph.status();
  return std::move(graph).value();
}

TEST(ShardedRefinementTest, RadixSortedSplittersMatchInMemory) {
  const Graph graph = MakePowerLawGraph();
  size_t touched_by_unit_cell = 0;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    touched_by_unit_cell += graph.Degree(v) > 0;
  }
  ASSERT_GT(touched_by_unit_cell, kInsertionSortMaxKeys);

  uint64_t expected_trace = 0;
  const auto expected_cells = EquitablePartition(
      graph, RefinementOptions{.trace_hash = &expected_trace});
  uint64_t expected_tdv_trace = 0;
  const VertexPartition expected_tdv =
      ComputeTotalDegreePartition(graph, nullptr, &expected_tdv_trace);
  EXPECT_EQ(expected_tdv_trace, expected_trace);
  EXPECT_EQ(expected_tdv,
            VertexPartition::FromCells(graph.NumVertices(), expected_cells));

  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    const std::string manifest =
        SplitToTemp(graph, shards, "powerlaw_" + std::to_string(shards));
    const auto sharded = ShardedGraph::Open(manifest);
    ASSERT_TRUE(sharded.ok()) << sharded.status();

    uint64_t trace = 0;
    EXPECT_EQ(ShardedEquitablePartition(
                  *sharded, RefinementOptions{.trace_hash = &trace}),
              expected_cells);
    EXPECT_EQ(trace, expected_trace);

    uint64_t tdv_trace = 0;
    const VertexPartition tdv =
        ShardedTotalDegreePartition(*sharded, nullptr, &tdv_trace);
    EXPECT_EQ(tdv, expected_tdv);
    EXPECT_EQ(tdv.cell_of, expected_tdv.cell_of);
    EXPECT_EQ(tdv_trace, expected_trace);
  }
}

/// An initial colouring must flow through the sharded path the same way
/// (the seam sits below OrderedPartition construction).
TEST(ShardedRefinementTest, HonoursInitialColors) {
  const Graph graph = MakeRefinementGraph();
  std::vector<uint32_t> colors(graph.NumVertices(), 0);
  for (size_t v = 0; v < colors.size(); ++v) colors[v] = v % 3;

  uint64_t expected_trace = 0;
  const auto expected = EquitablePartition(
      graph,
      RefinementOptions{.colors = colors, .trace_hash = &expected_trace});

  const std::string manifest = SplitToTemp(graph, 2, "colors");
  const auto sharded = ShardedGraph::Open(manifest);
  ASSERT_TRUE(sharded.ok()) << sharded.status();

  uint64_t trace = 0;
  const auto cells = ShardedEquitablePartition(
      *sharded,
      RefinementOptions{.colors = colors, .trace_hash = &trace});
  EXPECT_EQ(cells, expected);
  EXPECT_EQ(trace, expected_trace);
}

}  // namespace
}  // namespace ksym
