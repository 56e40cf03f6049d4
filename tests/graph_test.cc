// Tests for the Graph / GraphBuilder core, including
// property-style invariant checks of the CSR representation on random edge
// soups.

#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace ksym {
namespace {

// Asserts the CSR invariants that every valid Graph must satisfy: sorted
// duplicate-free self-loop-free adjacency, edge symmetry, degree sum
// = 2 * |E|, and agreement between Neighbors/Edges/HasEdge/ForEachEdge.
void ExpectGraphInvariants(const Graph& g) {
  const size_t n = g.NumVertices();
  size_t degree_sum = 0;
  for (VertexId v = 0; v < n; ++v) {
    const auto neighbors = g.Neighbors(v);
    ASSERT_EQ(neighbors.size(), g.Degree(v));
    degree_sum += neighbors.size();
    for (size_t i = 0; i < neighbors.size(); ++i) {
      ASSERT_LT(neighbors[i], n);
      ASSERT_NE(neighbors[i], v);  // No self-loops.
      if (i > 0) {
        ASSERT_LT(neighbors[i - 1], neighbors[i]);  // Sorted + unique.
      }
      // Symmetry: v must appear in the neighbour's list.
      const auto back = g.Neighbors(neighbors[i]);
      ASSERT_TRUE(std::binary_search(back.begin(), back.end(), v));
      ASSERT_TRUE(g.HasEdge(v, neighbors[i]));
      ASSERT_TRUE(g.HasEdge(neighbors[i], v));
    }
  }
  EXPECT_EQ(degree_sum, 2 * g.NumEdges());

  // Edges() agrees with the adjacency and with ForEachEdge.
  const auto edges = g.Edges();
  EXPECT_EQ(edges.size(), g.NumEdges());
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  std::vector<std::pair<VertexId, VertexId>> visited;
  g.ForEachEdge([&visited](VertexId u, VertexId v) {
    ASSERT_LT(u, v);
    visited.emplace_back(u, v);
  });
  EXPECT_EQ(visited, edges);
  for (const auto& [u, v] : edges) {
    EXPECT_TRUE(g.HasEdge(u, v));
  }
}

TEST(GraphTest, EmptyGraph) {
  Graph g(0);
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_TRUE(g.Edges().empty());
}

TEST(GraphTest, IsolatedVertices) {
  Graph g(5);
  EXPECT_EQ(g.NumVertices(), 5u);
  EXPECT_EQ(g.NumEdges(), 0u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(g.Degree(v), 0u);
}

TEST(GraphBuilderTest, BuildsSortedAdjacency) {
  GraphBuilder b(4);
  b.AddEdge(2, 0);
  b.AddEdge(0, 1);
  b.AddEdge(3, 0);
  const Graph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 3u);
  const auto n0 = g.Neighbors(0);
  ASSERT_EQ(n0.size(), 3u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_EQ(n0[2], 3u);
}

TEST(GraphBuilderTest, DeduplicatesAndDropsSelfLoops) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // Duplicate in reverse.
  b.AddEdge(0, 1);  // Duplicate.
  b.AddEdge(2, 2);  // Self-loop.
  const Graph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Degree(2), 0u);
}

TEST(GraphBuilderTest, GrowsVerticesOnDemand) {
  GraphBuilder b;
  b.AddEdge(0, 7);
  const Graph g = b.Build();
  EXPECT_EQ(g.NumVertices(), 8u);
  EXPECT_TRUE(g.HasEdge(0, 7));
}

TEST(GraphBuilderTest, AddVertexReturnsDenseIds) {
  GraphBuilder b(2);
  EXPECT_EQ(b.AddVertex(), 2u);
  EXPECT_EQ(b.AddVertex(), 3u);
  EXPECT_EQ(b.Build().NumVertices(), 4u);
}

TEST(GraphTest, HasEdgeBothDirections) {
  GraphBuilder b(3);
  b.AddEdge(0, 2);
  const Graph g = b.Build();
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 2));
}

TEST(GraphTest, EdgesAreNormalizedAndSorted) {
  GraphBuilder b(4);
  b.AddEdge(3, 1);
  b.AddEdge(2, 0);
  b.AddEdge(1, 0);
  const auto edges = b.Build().Edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], std::make_pair(0u, 1u));
  EXPECT_EQ(edges[1], std::make_pair(0u, 2u));
  EXPECT_EQ(edges[2], std::make_pair(1u, 3u));
}

TEST(GraphTest, DegreesVector) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  const auto degrees = b.Build().Degrees();
  EXPECT_EQ(degrees, (std::vector<size_t>{2, 1, 1}));
}

TEST(GraphTest, EqualityIsLabelled) {
  GraphBuilder b1(3);
  b1.AddEdge(0, 1);
  GraphBuilder b2(3);
  b2.AddEdge(1, 2);
  EXPECT_FALSE(b1.Build() == b2.Build());  // Isomorphic but not equal.
  EXPECT_TRUE(b1.Build() == b1.Build());
}

TEST(GraphTest, FromCsrAdoptsArrays) {
  // Path 0-1-2: offsets {0, 1, 3, 4}, neighbors {1, 0, 2, 1}.
  const Graph g = Graph::FromCsr({0, 1, 3, 4}, {1, 0, 2, 1});
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(0, 2));
  ExpectGraphInvariants(g);

  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  EXPECT_TRUE(g == b.Build());
}

TEST(GraphTest, BorrowedGraphCopyIsOwningDeepCopy) {
  // Path 0-1-2 over caller-owned arrays.
  const std::vector<EdgeIndex> offsets = {0, 1, 3, 4};
  const std::vector<VertexId> neighbors = {1, 0, 2, 1};
  Graph borrowed = Graph::FromBorrowedCsr(offsets, neighbors);
  EXPECT_FALSE(borrowed.OwnsStorage());
  EXPECT_EQ(borrowed.RawNeighbors().data(), neighbors.data());

  // Copying materializes owning, independent arrays.
  const Graph copy = borrowed;
  EXPECT_TRUE(copy.OwnsStorage());
  EXPECT_NE(copy.RawOffsets().data(), offsets.data());
  EXPECT_NE(copy.RawNeighbors().data(), neighbors.data());
  EXPECT_TRUE(copy == borrowed);
  ExpectGraphInvariants(copy);

  // Copy-assignment onto an existing graph takes the same path.
  Graph assigned(7);
  assigned = borrowed;
  EXPECT_TRUE(assigned.OwnsStorage());
  EXPECT_TRUE(assigned == borrowed);

  // Moving keeps the borrowed view (no hidden deep copy on move).
  const Graph moved = std::move(borrowed);
  EXPECT_FALSE(moved.OwnsStorage());
  EXPECT_EQ(moved.RawNeighbors().data(), neighbors.data());

  // Copies of an owning graph still deep-copy.
  const Graph copy2 = copy;
  EXPECT_TRUE(copy2.OwnsStorage());
  EXPECT_NE(copy2.RawNeighbors().data(), copy.RawNeighbors().data());
  EXPECT_TRUE(copy2 == copy);
}

TEST(GraphTest, MemoryBytesTracksSize) {
  EXPECT_GT(Graph(1).MemoryBytes(), 0u);  // Offsets alone take space.
  GraphBuilder b(100);
  for (VertexId v = 0; v + 1 < 100; ++v) b.AddEdge(v, v + 1);
  const Graph g = b.Build();
  // At least the tight CSR payload: (n + 1) offsets + 2|E| neighbor ids.
  EXPECT_GE(g.MemoryBytes(),
            101 * sizeof(EdgeIndex) + 2 * 99 * sizeof(VertexId));
}

TEST(GraphTest, RawArraysMatchAccessors) {
  GraphBuilder b(4);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  const Graph g = b.Build();
  const auto offsets = g.RawOffsets();
  const auto neighbors = g.RawNeighbors();
  ASSERT_EQ(offsets.size(), g.NumVertices() + 1);
  ASSERT_EQ(neighbors.size(), 2 * g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto span = g.Neighbors(v);
    ASSERT_EQ(static_cast<size_t>(offsets[v + 1] - offsets[v]), span.size());
    EXPECT_EQ(neighbors.data() + offsets[v], span.data());
  }
}

// Property test: arbitrary edge soups (duplicates, reversed duplicates,
// self-loops, out-of-order) always produce a Graph satisfying the CSR
// invariants, and the edge set matches an independently computed one.
TEST(GraphPropertyTest, RandomEdgeSoupBuildsValidGraph) {
  Rng rng(12345);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.NextBounded(40);
    const size_t num_inserts = rng.NextBounded(4 * n + 1);
    GraphBuilder builder(n);
    std::set<std::pair<VertexId, VertexId>> expected;
    for (size_t e = 0; e < num_inserts; ++e) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      builder.AddEdge(u, v);
      if (u != v) expected.insert({std::min(u, v), std::max(u, v)});
    }
    const Graph g = builder.Build();
    ASSERT_EQ(g.NumVertices(), n);
    ASSERT_EQ(g.NumEdges(), expected.size());
    ExpectGraphInvariants(g);
    const auto edges = g.Edges();
    EXPECT_TRUE(std::equal(edges.begin(), edges.end(), expected.begin(),
                           expected.end()));
  }
}

}  // namespace
}  // namespace ksym
