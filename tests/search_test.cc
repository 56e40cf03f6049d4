// Validates the individualization-refinement automorphism search against
// graph families with closed-form automorphism groups.

#include "aut/search.h"

#include <gtest/gtest.h>

#include "aut/orbits.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "perm/permutation.h"
#include "perm/schreier_sims.h"

namespace ksym {
namespace {

double AutOrder(const Graph& graph) {
  const AutomorphismResult aut = ComputeAutomorphisms(graph, {}, nullptr);
  return GroupOrderFromGenerators(
      graph.NumVertices(), ToDense(graph.NumVertices(), aut.generators));
}

void ExpectValidGenerators(const Graph& graph) {
  const AutomorphismResult aut = ComputeAutomorphisms(graph, {}, nullptr);
  for (const Permutation& g : ToDense(graph.NumVertices(), aut.generators)) {
    EXPECT_TRUE(IsAutomorphism(graph, g)) << g.ToCycleString();
  }
}

double Factorial(size_t n) {
  double f = 1.0;
  for (size_t i = 2; i <= n; ++i) f *= static_cast<double>(i);
  return f;
}

TEST(AutSearchTest, EmptyAndTrivialGraphs) {
  EXPECT_EQ(ComputeAutomorphisms(Graph(0), {}, nullptr).generators.size(), 0u);
  EXPECT_EQ(AutOrder(Graph(1)), 1.0);
  EXPECT_EQ(AutOrder(Graph(4)), Factorial(4));  // 4 isolated vertices.
}

TEST(AutSearchTest, PathGraphHasOrderTwo) {
  for (size_t n : {2, 3, 5, 10, 31}) {
    EXPECT_EQ(AutOrder(MakePath(n)), 2.0) << "P_" << n;
  }
}

TEST(AutSearchTest, CycleGraphHasDihedralGroup) {
  for (size_t n : {3, 4, 5, 6, 9, 12, 20}) {
    EXPECT_EQ(AutOrder(MakeCycle(n)), 2.0 * static_cast<double>(n))
        << "C_" << n;
  }
}

TEST(AutSearchTest, CompleteGraphHasSymmetricGroup) {
  for (size_t n : {2, 3, 4, 5, 6, 7, 8}) {
    EXPECT_EQ(AutOrder(MakeComplete(n)), Factorial(n)) << "K_" << n;
  }
}

TEST(AutSearchTest, StarGraphFixesHub) {
  for (size_t n : {3, 4, 6, 10, 25}) {
    EXPECT_EQ(AutOrder(MakeStar(n)), Factorial(n - 1)) << "K_{1," << n - 1
                                                       << "}";
  }
}

TEST(AutSearchTest, CompleteBipartite) {
  EXPECT_EQ(AutOrder(MakeCompleteBipartite(2, 3)),
            Factorial(2) * Factorial(3));
  EXPECT_EQ(AutOrder(MakeCompleteBipartite(3, 3)),
            2.0 * Factorial(3) * Factorial(3));
  EXPECT_EQ(AutOrder(MakeCompleteBipartite(4, 2)),
            Factorial(4) * Factorial(2));
}

TEST(AutSearchTest, HypercubeGroup) {
  // |Aut(Q_d)| = 2^d * d!.
  EXPECT_EQ(AutOrder(MakeHypercube(1)), 2.0);
  EXPECT_EQ(AutOrder(MakeHypercube(2)), 8.0);
  EXPECT_EQ(AutOrder(MakeHypercube(3)), 48.0);
  EXPECT_EQ(AutOrder(MakeHypercube(4)), 384.0);
}

TEST(AutSearchTest, PetersenGraphHasOrder120) {
  EXPECT_EQ(AutOrder(MakePetersen()), 120.0);
}

TEST(AutSearchTest, GridGraph) {
  // Rectangular m x n grid (m != n): |Aut| = 4 (Klein four-group);
  // square n x n: |Aut| = 8 (dihedral).
  EXPECT_EQ(AutOrder(MakeGrid(2, 5)), 4.0);
  EXPECT_EQ(AutOrder(MakeGrid(3, 4)), 4.0);
  EXPECT_EQ(AutOrder(MakeGrid(3, 3)), 8.0);
  EXPECT_EQ(AutOrder(MakeGrid(4, 4)), 8.0);
}

TEST(AutSearchTest, BalancedTree) {
  // Complete binary tree of depth 2: root fixed; each internal vertex's two
  // leaves swap (2^2), the two subtrees swap (2): 2^3 = 8.
  EXPECT_EQ(AutOrder(MakeBalancedTree(2, 2)), 8.0);
  // Depth-3 binary: 2^7 * ... : |Aut| = product over internal nodes of
  // (children subtree permutations): for complete binary depth 3 it is
  // 2^(1+2+4) = 128.
  EXPECT_EQ(AutOrder(MakeBalancedTree(2, 3)), 128.0);
  // Ternary depth 2: (3!)^(1+3) = 6^4 = 1296.
  EXPECT_EQ(AutOrder(MakeBalancedTree(3, 2)), 1296.0);
}

TEST(AutSearchTest, DisjointUnionOfIsomorphicComponentsMultiplies) {
  const Graph two_triangles = DisjointUnion(MakeCycle(3), MakeCycle(3));
  // Each triangle contributes S_3 (order 6); swapping the triangles doubles:
  // 6 * 6 * 2 = 72.
  EXPECT_EQ(AutOrder(two_triangles), 72.0);
}

TEST(AutSearchTest, GeneratorsAreAlwaysAutomorphisms) {
  ExpectValidGenerators(MakePetersen());
  ExpectValidGenerators(MakeHypercube(3));
  ExpectValidGenerators(MakeGrid(3, 4));
  Rng rng(7);
  ExpectValidGenerators(ErdosRenyiGnm(60, 120, rng));
  ExpectValidGenerators(BarabasiAlbert(80, 2, rng));
}

TEST(AutSearchTest, AsymmetricGraphHasTrivialGroup) {
  // The smallest asymmetric tree: a spider with legs of lengths 1, 2, 3.
  GraphBuilder builder(7);
  builder.AddEdge(0, 1);  // Leg of length 1.
  builder.AddEdge(0, 2);  // Leg of length 2.
  builder.AddEdge(2, 3);
  builder.AddEdge(0, 4);  // Leg of length 3.
  builder.AddEdge(4, 5);
  builder.AddEdge(5, 6);
  const Graph g = builder.Build();
  EXPECT_EQ(AutOrder(g), 1.0);
}

TEST(AutSearchTest, RigidCubicGraphRejectsDegreeMatchedLeaves) {
  // The Frucht graph is 3-regular and twin-free with a trivial group.
  // Refinement cannot split it, so the search reaches leaves on the first
  // path's trace whose maps preserve every degree without being
  // automorphisms; the leaf test must reject them by their arcs.
  // Hamiltonian cycle plus LCF [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2] chords.
  GraphBuilder builder(12);
  for (VertexId i = 0; i < 12; ++i) builder.AddEdge(i, (i + 1) % 12);
  const std::pair<VertexId, VertexId> chords[] = {{0, 7}, {1, 11}, {2, 10},
                                                  {3, 5}, {4, 9},  {6, 8}};
  for (const auto& [u, v] : chords) builder.AddEdge(u, v);
  const Graph frucht = builder.Build();
  const AutomorphismResult aut = ComputeAutomorphisms(frucht, {}, nullptr);
  EXPECT_TRUE(aut.generators.empty());
  for (VertexId v = 0; v < 12; ++v) EXPECT_EQ(aut.orbit_rep[v], v);
  // The root and at least two leaves: a second leaf shared the first
  // path's trace.
  EXPECT_GE(aut.nodes, 3u);
}

TEST(AutSearchTest, ColoredSearchRestrictsGroup) {
  // C_6 has |Aut| = 12; colouring vertices alternately restricts to the
  // subgroup preserving colours: rotations by even steps and reflections
  // fixing the classes — order 6 (dihedral on 3 elements).
  const Graph c6 = MakeCycle(6);
  const std::vector<uint32_t> colors = {0, 1, 0, 1, 0, 1};
  const AutomorphismResult aut = ComputeAutomorphisms(c6, colors, nullptr);
  for (const Permutation& g : ToDense(6, aut.generators)) {
    EXPECT_TRUE(IsAutomorphism(c6, g));
    for (VertexId v = 0; v < 6; ++v) {
      EXPECT_EQ(colors[v], colors[g.Image(v)]);
    }
  }
  EXPECT_EQ(GroupOrderFromGenerators(6, ToDense(6, aut.generators)), 6.0);
}

TEST(AutSearchTest, OrbitRepsMatchGroupOrbits) {
  const Graph g = MakeStar(6);
  const AutomorphismResult aut = ComputeAutomorphisms(g, {}, nullptr);
  // Hub (vertex 0) alone; leaves 1..5 together.
  EXPECT_EQ(aut.orbit_rep[0], 0u);
  for (VertexId v = 1; v < 6; ++v) EXPECT_EQ(aut.orbit_rep[v], 1u);
}

TEST(AutSearchTest, OrbitsOfPetersenAreVertexTransitive) {
  const AutomorphismResult aut = ComputeAutomorphisms(MakePetersen(), {}, nullptr);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(aut.orbit_rep[v], 0u);
}

}  // namespace
}  // namespace ksym
