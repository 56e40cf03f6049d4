// Tests for graph backbone detection (Algorithm 2, Theorems 3-4).

#include "ksym/backbone.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "aut/isomorphism.h"
#include "graph/generators.h"
#include "ksym/anonymizer.h"

namespace ksym {
namespace {

Graph Figure3Graph() {
  GraphBuilder b(8);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(2, 4);
  b.AddEdge(3, 5);
  b.AddEdge(4, 6);
  b.AddEdge(5, 7);
  b.AddEdge(6, 7);
  b.AddEdge(3, 4);
  return b.Build();
}

TEST(BackboneTest, StarCollapsesToSingleEdge) {
  // All leaves are mutual orbit-copies: the backbone of a star under
  // Orb(G) is one hub plus one leaf.
  const Graph star = MakeStar(8);
  const VertexPartition orbits = ComputeAutomorphismPartition(star, {}, nullptr);
  const BackboneResult backbone = ComputeBackbone(star, orbits, nullptr);
  EXPECT_EQ(backbone.graph.NumVertices(), 2u);
  EXPECT_EQ(backbone.graph.NumEdges(), 1u);
  EXPECT_EQ(backbone.removed_vertices, 6u);
}

TEST(BackboneTest, RigidGraphIsItsOwnBackbone) {
  // A path has orbits {ends}, {next-to-ends}, ...; the two ends are NOT
  // L(V)-copies (different external neighbours), so nothing reduces.
  const Graph p5 = MakePath(5);
  const VertexPartition orbits = ComputeAutomorphismPartition(p5, {}, nullptr);
  const BackboneResult backbone = ComputeBackbone(p5, orbits, nullptr);
  EXPECT_EQ(backbone.graph.NumVertices(), 5u);
  EXPECT_EQ(backbone.removed_vertices, 0u);
}

TEST(BackboneTest, Figure7aComponentsWithSharedNeighborsReduce) {
  // Figure 7(a)-style: two single-vertex components in one cell sharing the
  // same external neighbour are copies; one is removed.
  GraphBuilder b(5);
  b.AddEdge(0, 2);  // Cell {0, 1} hangs off vertex 2.
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);  // Tail of length 2 keeps 3 out of the pendant orbit.
  b.AddEdge(3, 4);
  const Graph g = b.Build();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  const BackboneResult backbone = ComputeBackbone(g, orbits, nullptr);
  EXPECT_EQ(backbone.removed_vertices, 1u);
  EXPECT_EQ(backbone.graph.NumVertices(), 4u);  // The path 0-2-3-4.
}

TEST(BackboneTest, Figure7bComponentsWithDisjointNeighborsDoNot) {
  // Figure 7(b)-style: two pendant vertices in one orbit but attached to
  // *different* (symmetric) hubs are not L(V)-copies; nothing reduces in
  // their cell — and consequently nothing anywhere.
  GraphBuilder b(4);
  b.AddEdge(0, 1);  // 0 pendant on 1.
  b.AddEdge(2, 3);  // 2 pendant on 3 (wait: make middle edge)
  b.AddEdge(1, 3);  // Connect the two hubs: path 0-1-3-2.
  const Graph g = b.Build();
  // Orbits: {0, 2} (pendants), {1, 3}.
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  ASSERT_EQ(orbits.NumCells(), 2u);
  const BackboneResult backbone = ComputeBackbone(g, orbits, nullptr);
  EXPECT_EQ(backbone.removed_vertices, 0u);
}

TEST(BackboneTest, AnonymizedGraphReducesToOriginalBackbone) {
  // Theorem 4: orbit copying preserves the backbone. B(G') == B(G).
  const Graph g = Figure3Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  const BackboneResult original_backbone = ComputeBackbone(g, orbits, nullptr);

  for (uint32_t k : {2u, 3u, 5u}) {
    AnonymizationOptions options;
    options.k = k;
    const auto anonymized = Anonymize(g, options);
    ASSERT_TRUE(anonymized.ok());
    const BackboneResult backbone =
        ComputeBackbone(anonymized->graph, anonymized->partition, nullptr);
    EXPECT_TRUE(AreIsomorphic(backbone.graph, original_backbone.graph))
        << "k=" << k;
  }
}

TEST(BackboneTest, PartitionRestrictedConsistently) {
  const Graph star = MakeStar(6);
  const VertexPartition orbits = ComputeAutomorphismPartition(star, {}, nullptr);
  const BackboneResult backbone = ComputeBackbone(star, orbits, nullptr);
  EXPECT_EQ(backbone.partition.cells.size(), 2u);
  EXPECT_EQ(backbone.kept.size(), backbone.graph.NumVertices());
  // kept maps backbone ids to original ids; cell structure matches.
  for (size_t i = 0; i < backbone.kept.size(); ++i) {
    const uint32_t original_cell = orbits.cell_of[backbone.kept[i]];
    for (size_t j = 0; j < backbone.kept.size(); ++j) {
      if (backbone.partition.cell_of[i] == backbone.partition.cell_of[j]) {
        EXPECT_EQ(orbits.cell_of[backbone.kept[j]], original_cell);
      }
    }
  }
}

TEST(BackboneTest, MultiOrbitSubstructuresDoNotReduce) {
  // Figure 6's S1/S2 distinction between backbone and quotient: an
  // automorphic substructure spanning *several* orbits cannot be removed by
  // the single-orbit reduction operation. Hub 0 with two pendant leaves
  // (1, 2) and two pendant length-2 arms (3-4, 5-6): the leaves are
  // single-orbit copies (reduce), but each arm spans the two orbits
  // {3,5} and {4,6}, and within each of those cells the members have
  // different external neighbours — the arms stay.
  GraphBuilder b(7);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  b.AddEdge(3, 4);
  b.AddEdge(0, 5);
  b.AddEdge(5, 6);
  const Graph g = b.Build();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  const BackboneResult backbone = ComputeBackbone(g, orbits, nullptr);
  EXPECT_EQ(backbone.removed_vertices, 1u);     // One of the two leaves.
  EXPECT_EQ(backbone.graph.NumVertices(), 6u);  // Both arms preserved.
}

// The backbone of a cell {0..7} with the given inside `edges`, beside four
// outside vertices A, B, C, D (8..11) in cells of their own. `outside`
// joins each member to one of them, which gives it its L(V) colour.
BackboneResult TwoComponentCell(
    const std::vector<std::pair<VertexId, VertexId>>& edges,
    const std::vector<std::pair<VertexId, char>>& outside) {
  GraphBuilder b(12);
  for (const auto& [u, v] : edges) b.AddEdge(u, v);
  for (const auto& [v, colour] : outside) {
    b.AddEdge(v, static_cast<VertexId>(8 + (colour - 'A')));
  }
  const Graph g = b.Build();
  std::vector<std::vector<VertexId>> cells = {{}};
  for (VertexId v = 0; v < 8; ++v) cells[0].push_back(v);
  for (VertexId v = 8; v < 12; ++v) cells.push_back({v});
  return ComputeBackbone(g, VertexPartition::FromCells(12, std::move(cells)),
                         nullptr);
}

TEST(BackboneTest, FourVertexPathsWithTheSameKeyAreNotCopies) {
  // Paths 0-1-2-3 coloured A-B-C-D and 4-5-6-7 coloured A-C-B-D: equal
  // sizes, edge counts and (colour, degree) profiles, but no
  // colour-preserving isomorphism, so both stay.
  const BackboneResult backbone = TwoComponentCell(
      {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}},
      {{0, 'A'}, {1, 'B'}, {2, 'C'}, {3, 'D'},
       {4, 'A'}, {5, 'C'}, {6, 'B'}, {7, 'D'}});
  EXPECT_EQ(backbone.removed_vertices, 0u);
  EXPECT_EQ(backbone.graph.NumVertices(), 12u);
}

TEST(BackboneTest, EquallyColouredThreeVertexPathsAreCopies) {
  // Paths 0-1-2 and 3-4-5, both coloured A-B-C with the centre B, plus the
  // isolated members 6 (D) and 7 (D): one path and one isolated vertex go.
  const BackboneResult backbone = TwoComponentCell(
      {{0, 1}, {1, 2}, {3, 4}, {4, 5}},
      {{0, 'A'}, {1, 'B'}, {2, 'C'}, {3, 'A'}, {4, 'B'}, {5, 'C'},
       {6, 'D'}, {7, 'D'}});
  EXPECT_EQ(backbone.removed_vertices, 4u);
  EXPECT_EQ(backbone.reduction_operations, 2u);
  EXPECT_EQ(backbone.kept, (std::vector<VertexId>{0, 1, 2, 6, 8, 9, 10, 11}));
}

TEST(BackboneTest, EmptyAndTrivialInputs) {
  const Graph empty(0);
  const BackboneResult backbone =
      ComputeBackbone(empty, VertexPartition::FromCells(0, {}), nullptr);
  EXPECT_EQ(backbone.graph.NumVertices(), 0u);

  const Graph isolated(3);
  const VertexPartition orbits = ComputeAutomorphismPartition(isolated, {}, nullptr);
  const BackboneResult b2 = ComputeBackbone(isolated, orbits, nullptr);
  EXPECT_EQ(b2.graph.NumVertices(), 1u);  // Three copies of one vertex.
}

}  // namespace
}  // namespace ksym
