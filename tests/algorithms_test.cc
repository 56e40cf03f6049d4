// Tests for graph algorithms: components, BFS, triangles, clustering,
// induced subgraphs, degree statistics. The triangle and BFS kernels are
// also checked against brute-force oracles on seeded random graphs.

#include "graph/algorithms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"

namespace ksym {
namespace {

TEST(ComponentsTest, SingleComponent) {
  const Graph g = MakeCycle(5);
  const ComponentInfo info = ConnectedComponents(g);
  EXPECT_EQ(info.num_components, 1u);
  EXPECT_EQ(info.sizes[0], 5u);
  EXPECT_TRUE(IsConnected(g));
}

TEST(ComponentsTest, MultipleComponents) {
  const Graph g = DisjointUnion(MakeCycle(3), MakePath(4));
  const ComponentInfo info = ConnectedComponents(g);
  EXPECT_EQ(info.num_components, 2u);
  EXPECT_FALSE(IsConnected(g));
  EXPECT_EQ(LargestComponentSize(g), 4u);
}

TEST(ComponentsTest, IsolatedVerticesAreComponents) {
  const ComponentInfo info = ConnectedComponents(Graph(4));
  EXPECT_EQ(info.num_components, 4u);
}

TEST(ComponentsTest, EmptyAndSingleton) {
  EXPECT_TRUE(IsConnected(Graph(0)));
  EXPECT_TRUE(IsConnected(Graph(1)));
  EXPECT_EQ(LargestComponentSize(Graph(0)), 0u);
}

TEST(BfsTest, DistancesOnPath) {
  const Graph g = MakePath(5);
  const auto dist = BfsDistances(g, 0);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(dist[i], i);
}

TEST(BfsTest, UnreachableIsMinusOne) {
  const Graph g = DisjointUnion(MakePath(2), MakePath(2));
  const auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], -1);
  EXPECT_EQ(dist[3], -1);
}

TEST(BfsTest, CycleWrapsAround) {
  const auto dist = BfsDistances(MakeCycle(6), 0);
  EXPECT_EQ(dist[3], 3);
  EXPECT_EQ(dist[5], 1);
}

TEST(TriangleTest, TriangleFreeGraphs) {
  EXPECT_EQ(TotalTriangles(MakeCycle(5)), 0u);
  EXPECT_EQ(TotalTriangles(MakePath(10)), 0u);
  EXPECT_EQ(TotalTriangles(MakeCompleteBipartite(3, 3)), 0u);
  EXPECT_EQ(TotalTriangles(MakePetersen()), 0u);
}

TEST(TriangleTest, CompleteGraphCounts) {
  // K_n has C(n,3) triangles; each vertex lies on C(n-1,2).
  const Graph k5 = MakeComplete(5);
  EXPECT_EQ(TotalTriangles(k5), 10u);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(TriangleCounts(k5)[v], 6u);
  }
}

TEST(TriangleTest, SingleTriangleWithTail) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(2, 3);
  const auto tri = TriangleCounts(b.Build());
  EXPECT_EQ(tri[0], 1u);
  EXPECT_EQ(tri[1], 1u);
  EXPECT_EQ(tri[2], 1u);
  EXPECT_EQ(tri[3], 0u);
}

TEST(ClusteringTest, CompleteGraphIsOne) {
  const auto cc = ClusteringCoefficients(MakeComplete(6));
  for (double c : cc) EXPECT_DOUBLE_EQ(c, 1.0);
}

TEST(ClusteringTest, LowDegreeVerticesAreZero) {
  const auto cc = ClusteringCoefficients(MakePath(3));
  EXPECT_DOUBLE_EQ(cc[0], 0.0);  // Degree 1.
  EXPECT_DOUBLE_EQ(cc[1], 0.0);  // Degree 2, no triangle.
}

TEST(ClusteringTest, HalfClosedNeighborhood) {
  // Vertex 0 adjacent to 1, 2, 3; only edge (1,2) among them:
  // c(0) = 1 / C(3,2) = 1/3.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  b.AddEdge(1, 2);
  EXPECT_NEAR(ClusteringCoefficients(b.Build())[0], 1.0 / 3.0, 1e-12);
}

/// Dense, sparse and skewed-degree graphs for the kernel oracles.
std::vector<Graph> OracleGraphs() {
  std::vector<Graph> graphs;
  Rng rng(4242);
  graphs.push_back(ErdosRenyiGnm(500, 3000, rng));
  graphs.push_back(ErdosRenyiGnm(300, 450, rng));
  graphs.push_back(BarabasiAlbert(400, 5, rng));
  return graphs;
}

/// For each edge u < v, the common neighbours w > v, found by
/// std::set_intersection and credited to u, v and w.
std::vector<uint64_t> BruteForceTriangleCounts(const Graph& graph) {
  std::vector<uint64_t> tri(graph.NumVertices(), 0);
  std::vector<VertexId> common;
  graph.ForEachEdge([&](VertexId u, VertexId v) {  // u < v.
    std::vector<VertexId> above_u, above_v;
    for (VertexId w : graph.Neighbors(u)) {
      if (w > v) above_u.push_back(w);
    }
    for (VertexId w : graph.Neighbors(v)) {
      if (w > v) above_v.push_back(w);
    }
    common.clear();
    std::set_intersection(above_u.begin(), above_u.end(), above_v.begin(),
                          above_v.end(), std::back_inserter(common));
    for (VertexId w : common) {
      ++tri[u];
      ++tri[v];
      ++tri[w];
    }
  });
  return tri;
}

TEST(TriangleTest, MatchesBruteForce) {
  for (const Graph& graph : OracleGraphs()) {
    EXPECT_EQ(TriangleCounts(graph), BruteForceTriangleCounts(graph));
  }
}

TEST(BfsTest, DistAndQueueMatchNaiveDequeBfs) {
  for (const Graph& graph : OracleGraphs()) {
    for (const VertexId source : {VertexId{0}, VertexId{17}}) {
      std::vector<int64_t> naive_dist(graph.NumVertices(), -1);
      std::vector<VertexId> naive_order{source};
      std::deque<VertexId> pending{source};
      naive_dist[source] = 0;
      while (!pending.empty()) {
        const VertexId u = pending.front();
        pending.pop_front();
        for (VertexId w : graph.Neighbors(u)) {
          if (naive_dist[w] != -1) continue;
          naive_dist[w] = naive_dist[u] + 1;
          naive_order.push_back(w);
          pending.push_back(w);
        }
      }
      std::vector<int64_t> dist;
      std::vector<VertexId> queue;
      BfsDistancesInto(graph, source, dist, queue);
      EXPECT_EQ(dist, naive_dist) << source;
      EXPECT_EQ(queue, naive_order) << source;
    }
  }
}

TEST(InducedSubgraphTest, ExtractsTriangle) {
  const Graph k5 = MakeComplete(5);
  const Graph sub = InducedSubgraph(k5, {0, 2, 4});
  EXPECT_EQ(sub.NumVertices(), 3u);
  EXPECT_EQ(sub.NumEdges(), 3u);
}

TEST(InducedSubgraphTest, PreservesOnlyInternalEdges) {
  const Graph p5 = MakePath(5);  // 0-1-2-3-4
  const Graph sub = InducedSubgraph(p5, {0, 1, 3});
  EXPECT_EQ(sub.NumEdges(), 1u);  // Only 0-1 survives.
  EXPECT_TRUE(sub.HasEdge(0, 1));
}

TEST(InducedSubgraphTest, EmptySelection) {
  const Graph sub = InducedSubgraph(MakeComplete(4), {});
  EXPECT_EQ(sub.NumVertices(), 0u);
}

TEST(RelabelTest, PreservesStructure) {
  const Graph p3 = MakePath(3);                       // 0-1-2
  const Graph r = RelabelGraph(p3, {2, 0, 1});        // 0->2, 1->0, 2->1
  EXPECT_TRUE(r.HasEdge(2, 0));
  EXPECT_TRUE(r.HasEdge(0, 1));
  EXPECT_FALSE(r.HasEdge(1, 2));
}

TEST(DisjointUnionTest, ShiftsSecondGraph) {
  const Graph u = DisjointUnion(MakePath(2), MakePath(3));
  EXPECT_EQ(u.NumVertices(), 5u);
  EXPECT_EQ(u.NumEdges(), 3u);
  EXPECT_TRUE(u.HasEdge(0, 1));
  EXPECT_TRUE(u.HasEdge(2, 3));
  EXPECT_FALSE(u.HasEdge(1, 2));
}

TEST(DegreeStatsTest, MatchesHandComputation) {
  // Star K_{1,4}: degrees 4,1,1,1,1.
  const DegreeStats stats = ComputeDegreeStats(MakeStar(5));
  EXPECT_EQ(stats.num_vertices, 5u);
  EXPECT_EQ(stats.num_edges, 4u);
  EXPECT_EQ(stats.min_degree, 1u);
  EXPECT_EQ(stats.max_degree, 4u);
  EXPECT_DOUBLE_EQ(stats.median_degree, 1.0);
  EXPECT_DOUBLE_EQ(stats.average_degree, 8.0 / 5.0);
}

TEST(DegreeStatsTest, EvenCountMedianAverages) {
  const DegreeStats stats = ComputeDegreeStats(MakePath(4));  // 1,2,2,1
  EXPECT_DOUBLE_EQ(stats.median_degree, 1.5);
}

}  // namespace
}  // namespace ksym
