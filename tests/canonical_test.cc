// Tests for canonical forms and isomorphism testing.

#include "aut/canonical.h"

#include <gtest/gtest.h>

#include <numeric>

#include "aut/isomorphism.h"
#include "aut/refinement.h"
#include "aut/search.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "perm/schreier_sims.h"

namespace ksym {
namespace {

Graph RandomRelabel(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> perm(g.NumVertices());
  std::iota(perm.begin(), perm.end(), 0u);
  rng.Shuffle(perm.begin(), perm.end());
  return RelabelGraph(g, perm);
}

TEST(CanonicalTest, LabelingIsValidPermutation) {
  const Graph g = MakePetersen();
  const CanonicalForm form = ComputeCanonicalForm(g);
  EXPECT_EQ(form.labeling.Size(), 10u);
  EXPECT_EQ(form.edges.size(), 15u);
}

TEST(CanonicalTest, InvariantUnderRelabeling) {
  for (const Graph& g :
       {MakePetersen(), MakePath(8), MakeStar(7), MakeGrid(3, 4),
        MakeBalancedTree(2, 3)}) {
    const CanonicalForm reference = ComputeCanonicalForm(g);
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const CanonicalForm relabeled =
          ComputeCanonicalForm(RandomRelabel(g, seed));
      EXPECT_TRUE(reference == relabeled);
    }
  }
}

TEST(CanonicalTest, RandomGraphsInvariantUnderRelabeling) {
  Rng rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = ErdosRenyiGnm(30, 50, rng);
    const CanonicalForm a = ComputeCanonicalForm(g);
    const CanonicalForm b = ComputeCanonicalForm(RandomRelabel(g, trial + 99));
    EXPECT_TRUE(a == b);
  }
}

TEST(CanonicalTest, DistinguishesNonIsomorphicSameDegreeSequence) {
  // C_6 vs two disjoint triangles: both 2-regular on 6 vertices.
  const Graph c6 = MakeCycle(6);
  const Graph triangles = DisjointUnion(MakeCycle(3), MakeCycle(3));
  EXPECT_FALSE(ComputeCanonicalForm(c6) == ComputeCanonicalForm(triangles));
}

TEST(CanonicalTest, ColorsParticipateInForm) {
  const Graph p3 = MakePath(3);
  const CanonicalForm a = ComputeCanonicalForm(p3, {0, 1, 0});
  const CanonicalForm b = ComputeCanonicalForm(p3, {1, 0, 1});
  EXPECT_FALSE(a == b);  // Different colour patterns.
}

TEST(IsomorphismTest, IsomorphicPairs) {
  EXPECT_TRUE(AreIsomorphic(MakeCycle(5), RandomRelabel(MakeCycle(5), 3)));
  EXPECT_TRUE(AreIsomorphic(MakePetersen(), RandomRelabel(MakePetersen(), 4)));
  Rng rng(43);
  const Graph g = BarabasiAlbert(60, 2, rng);
  EXPECT_TRUE(AreIsomorphic(g, RandomRelabel(g, 5)));
}

TEST(IsomorphismTest, NonIsomorphicPairs) {
  EXPECT_FALSE(AreIsomorphic(MakeCycle(6),
                             DisjointUnion(MakeCycle(3), MakeCycle(3))));
  EXPECT_FALSE(AreIsomorphic(MakePath(5), MakeStar(5)));
  EXPECT_FALSE(AreIsomorphic(MakeCycle(5), MakeCycle(6)));
}

TEST(IsomorphismTest, ColoredIsomorphismRespectsColors) {
  const Graph p2a = MakePath(2);
  const Graph p2b = MakePath(2);
  EXPECT_TRUE(AreIsomorphic(p2a, p2b, {0, 1}, {1, 0}));   // Swap works.
  EXPECT_FALSE(AreIsomorphic(p2a, p2b, {0, 0}, {0, 1}));  // Profile differs.

  // Path 0-1-2: centre coloured differently blocks matching to an
  // end-coloured variant.
  const Graph p3 = MakePath(3);
  EXPECT_TRUE(AreIsomorphic(p3, p3, {0, 1, 0}, {0, 1, 0}));
  EXPECT_FALSE(AreIsomorphic(p3, p3, {0, 1, 0}, {1, 0, 0}));
}

TEST(IsomorphismTest, EmptyGraphs) {
  EXPECT_TRUE(AreIsomorphic(Graph(0), Graph(0)));
  EXPECT_TRUE(AreIsomorphic(Graph(3), Graph(3)));
  EXPECT_FALSE(AreIsomorphic(Graph(3), Graph(4)));
}

// The 4x4 rook's graph: vertices (i, j), adjacent iff same row or column.
Graph MakeRook4x4() {
  GraphBuilder b(16);
  auto id = [](int i, int j) { return static_cast<VertexId>(4 * i + j); };
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int jj = j + 1; jj < 4; ++jj) b.AddEdge(id(i, j), id(i, jj));
      for (int ii = i + 1; ii < 4; ++ii) b.AddEdge(id(i, j), id(ii, j));
    }
  }
  return b.Build();
}

// The Shrikhande graph: Cayley graph of Z4 x Z4 with connection set
// {±(1,0), ±(0,1), ±(1,1)}.
Graph MakeShrikhande() {
  GraphBuilder b(16);
  auto id = [](int x, int y) {
    return static_cast<VertexId>(4 * ((x % 4 + 4) % 4) + ((y % 4 + 4) % 4));
  };
  const int deltas[][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {-1, -1}};
  for (int x = 0; x < 4; ++x) {
    for (int y = 0; y < 4; ++y) {
      for (const auto& d : deltas) {
        b.AddEdge(id(x, y), id(x + d[0], y + d[1]));
      }
    }
  }
  return b.Build();
}

TEST(IsomorphismTest, RookVsShrikhandeStronglyRegularPair) {
  // Both are SRG(16, 6, 2, 2): colour refinement cannot tell them apart
  // (the unit partition is equitable for both), so this exercises the
  // search beyond 1-WL power.
  const Graph rook = MakeRook4x4();
  const Graph shrikhande = MakeShrikhande();
  ASSERT_EQ(rook.NumEdges(), 48u);
  ASSERT_EQ(shrikhande.NumEdges(), 48u);
  EXPECT_EQ(EquitablePartition(rook, {}).size(), 1u);
  EXPECT_EQ(EquitablePartition(shrikhande, {}).size(), 1u);
  EXPECT_FALSE(AreIsomorphic(rook, shrikhande));
  // Both are vertex-transitive and isomorphic to themselves relabelled.
  EXPECT_TRUE(AreIsomorphic(rook, RandomRelabel(rook, 17)));
  EXPECT_TRUE(AreIsomorphic(shrikhande, RandomRelabel(shrikhande, 18)));
}

TEST(IsomorphismTest, RookAndShrikhandeGroupOrders) {
  // |Aut(rook 4x4)| = 2 * (4!)^2 = 1152; |Aut(Shrikhande)| = 192.
  const AutomorphismResult rook_aut = ComputeAutomorphisms(MakeRook4x4(), {}, nullptr);
  EXPECT_EQ(GroupOrderFromGenerators(16, ToDense(16, rook_aut.generators)),
            1152.0);
  const AutomorphismResult shr_aut = ComputeAutomorphisms(MakeShrikhande(), {}, nullptr);
  EXPECT_EQ(GroupOrderFromGenerators(16, ToDense(16, shr_aut.generators)),
            192.0);
}

TEST(IsomorphismTest, RegularNonIsomorphicPair) {
  // K_{3,3} vs the triangular prism: both 3-regular on 6 vertices.
  GraphBuilder prism(6);
  prism.AddEdge(0, 1);
  prism.AddEdge(1, 2);
  prism.AddEdge(2, 0);
  prism.AddEdge(3, 4);
  prism.AddEdge(4, 5);
  prism.AddEdge(5, 3);
  prism.AddEdge(0, 3);
  prism.AddEdge(1, 4);
  prism.AddEdge(2, 5);
  EXPECT_FALSE(AreIsomorphic(MakeCompleteBipartite(3, 3), prism.Build()));
}

}  // namespace
}  // namespace ksym
