// Oracle for Fig. 2's 1-neighbourhood measure. The reference keys every
// vertex by the canonical form of its whole rooted ego net (the induced
// subgraph on N(v) ∪ {v} with v coloured apart), or, past 64 vertices, by
// its coloured refinement trace, and interns the keys in vertex order.
// NeighborhoodMeasure keys small ego nets by the neighbour graph G[N(v)]
// alone, counting its components of at most three vertices; its label
// vectors must equal the reference's element for element, not just induce
// the same partition.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "attack/measures.h"
#include "aut/canonical.h"
#include "aut/refinement.h"
#include "common/intern.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace ksym {
namespace {

std::vector<uint32_t> ReferenceLabels(const Graph& graph) {
  constexpr size_t kExactLimit = 64;
  std::vector<std::vector<uint64_t>> keys(graph.NumVertices());
  SubgraphExtractor extractor(graph);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    std::vector<VertexId> ego = {v};
    const auto neighbors = graph.Neighbors(v);
    ego.insert(ego.end(), neighbors.begin(), neighbors.end());
    const Graph subgraph = extractor.Extract(ego);
    std::vector<uint32_t> colors(ego.size(), 0);
    colors[0] = 1;
    std::vector<uint64_t>& key = keys[v];
    key = {ego.size(), subgraph.NumEdges()};
    if (ego.size() <= kExactLimit) {
      const CanonicalForm form = ComputeCanonicalForm(subgraph, colors);
      for (const auto& [a, b] : form.edges) {
        key.push_back((uint64_t{a} << 32) | b);
      }
      for (uint32_t c : form.colors) key.push_back(0x100000000ull | c);
    } else {
      OrderedPartition partition(ego.size(), colors);
      Refiner refiner(subgraph);
      key.push_back(refiner.RefineAll(partition));
      key.push_back(partition.NumCells());
    }
  }
  return InternLabels(std::move(keys));
}

void ExpectReferenceLabels(const Graph& graph, const std::string& name) {
  EXPECT_EQ(NeighborhoodMeasure().eval(graph), ReferenceLabels(graph))
      << name;
}

TEST(NeighborhoodOracleTest, RandomGraphs) {
  Rng rng(2510);
  size_t graphs = 0;
  for (int round = 0; round < 20; ++round) {
    for (size_t n : {12, 30, 70}) {
      for (double density : {0.05, 0.15, 0.4}) {
        const size_t m = static_cast<size_t>(density * n * (n - 1) / 2);
        ExpectReferenceLabels(ErdosRenyiGnm(n, m, rng),
                              "ER(" + std::to_string(n) + ", " +
                                  std::to_string(m) + ")");
        ++graphs;
      }
      for (size_t attach : {1, 2, 4}) {
        ExpectReferenceLabels(BarabasiAlbert(n, attach, rng),
                              "BA(" + std::to_string(n) + ", " +
                                  std::to_string(attach) + ")");
        ++graphs;
      }
    }
    for (size_t k : {2, 4, 6}) {
      for (double beta : {0.0, 0.1, 0.5}) {
        ExpectReferenceLabels(WattsStrogatz(40, k, beta, rng),
                              "WS(40, " + std::to_string(k) + ")");
        ++graphs;
      }
    }
  }
  EXPECT_GE(graphs, 300u);
}

TEST(NeighborhoodOracleTest, SymmetricFamilies) {
  ExpectReferenceLabels(MakeCompleteBipartite(3, 4), "K3,4");
  ExpectReferenceLabels(MakeCompleteBipartite(5, 5), "K5,5");
  ExpectReferenceLabels(MakeCompleteBipartite(2, 40), "K2,40");
  ExpectReferenceLabels(MakeComplete(12), "K12");
  for (size_t n : {3, 4, 5, 9}) {
    ExpectReferenceLabels(MakeCycle(n), "C" + std::to_string(n));
  }
  ExpectReferenceLabels(MakeGrid(4, 6), "grid 4x6");
  ExpectReferenceLabels(MakeHypercube(4), "Q4");
  ExpectReferenceLabels(MakePetersen(), "Petersen");
}

TEST(NeighborhoodOracleTest, HubEgoNets) {
  // The centre's ego net has 100 vertices and takes the refinement-trace
  // key; the leaves' ego nets are stars.
  ExpectReferenceLabels(MakeStar(100), "star(100)");
  ExpectReferenceLabels(MakeComplete(66), "K66");
  Rng rng(5);
  ExpectReferenceLabels(
      DisjointUnion(MakeStar(100), BarabasiAlbert(100, 2, rng)),
      "star(100) + BA(100, 2)");
}

// Vertices 0 and 8 both have degree 7. Their neighbour graphs share a K2
// (neighbour positions 5 and 6) and differ in the rest, given by its edges
// on neighbour positions 0..4 (a position no edge names is isolated).
Graph TwoEgoNets(const std::vector<std::pair<VertexId, VertexId>>& first,
                 const std::vector<std::pair<VertexId, VertexId>>& second) {
  GraphBuilder builder(16);
  for (VertexId centre : {0u, 8u}) {
    for (VertexId i = 1; i <= 7; ++i) builder.AddEdge(centre, centre + i);
    builder.AddEdge(centre + 6, centre + 7);  // The shared K2.
  }
  for (const auto& [a, b] : first) builder.AddEdge(1 + a, 1 + b);
  for (const auto& [a, b] : second) builder.AddEdge(9 + a, 9 + b);
  return builder.Build();
}

TEST(NeighborhoodOracleTest, NeighbourGraphsDifferingInOneComponent) {
  struct Case {
    std::string name;
    std::vector<std::pair<VertexId, VertexId>> first;
    std::vector<std::pair<VertexId, VertexId>> second;
    bool same_class;
  };
  const std::vector<Case> cases = {
      {"P4 vs K1,3", {{0, 1}, {1, 2}, {2, 3}}, {{0, 1}, {0, 2}, {0, 3}}, false},
      {"C4 vs paw",
       {{0, 1}, {1, 2}, {2, 3}, {3, 0}},
       {{0, 1}, {1, 2}, {2, 0}, {2, 3}},
       false},
      {"P3 vs K3", {{0, 1}, {1, 2}}, {{0, 1}, {1, 2}, {2, 0}}, false},
      {"P4 vs P4 relabelled",
       {{0, 1}, {1, 2}, {2, 3}},
       {{1, 3}, {3, 0}, {0, 2}},
       true},
      {"K1,3 + K1 vs K1,4",
       {{0, 1}, {0, 2}, {0, 3}},
       {{0, 1}, {0, 2}, {0, 3}, {0, 4}},
       false},
  };
  for (const Case& c : cases) {
    const Graph graph = TwoEgoNets(c.first, c.second);
    ASSERT_EQ(graph.Degree(0), graph.Degree(8)) << c.name;
    const std::vector<uint32_t> labels = NeighborhoodMeasure().eval(graph);
    EXPECT_EQ(labels, ReferenceLabels(graph)) << c.name;
    EXPECT_EQ(labels[0] == labels[8], c.same_class) << c.name;
  }
}

}  // namespace
}  // namespace ksym
