// Tests for permutations, union-find and orbit computation.

#include "perm/permutation.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "perm/union_find.h"

namespace ksym {
namespace {

TEST(PermutationTest, IdentityProperties) {
  const Permutation id = Permutation::Identity(5);
  EXPECT_TRUE(id.IsIdentity());
  EXPECT_EQ(id.ToCycleString(), "()");
  for (VertexId x = 0; x < 5; ++x) EXPECT_EQ(id.Image(x), x);
}

TEST(PermutationTest, ComposeAppliesLeftThenRight) {
  // f = (0 1), g = (1 2). (f*g)(0) = g(f(0)) = g(1) = 2.
  const Permutation f({1, 0, 2});
  const Permutation g({0, 2, 1});
  const Permutation fg = f.Compose(g);
  EXPECT_EQ(fg.Image(0), 2u);
  EXPECT_EQ(fg.Image(1), 0u);
  EXPECT_EQ(fg.Image(2), 1u);
}

TEST(PermutationTest, InverseCancels) {
  const Permutation p({2, 0, 3, 1});
  EXPECT_TRUE(p.Compose(p.Inverse()).IsIdentity());
  EXPECT_TRUE(p.Inverse().Compose(p).IsIdentity());
}

TEST(PermutationTest, CycleDecomposition) {
  const Permutation p({1, 2, 0, 4, 3, 5});  // (0 1 2)(3 4)
  const auto cycles = p.Cycles();
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0], (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(cycles[1], (std::vector<VertexId>{3, 4}));
  EXPECT_EQ(p.ToCycleString(), "(0 1 2)(3 4)");
}

TEST(PermutationTest, ValidityCheck) {
  EXPECT_TRUE(IsValidPermutation({0, 1, 2}));
  EXPECT_TRUE(IsValidPermutation({}));
  EXPECT_FALSE(IsValidPermutation({0, 0, 2}));
  EXPECT_FALSE(IsValidPermutation({0, 3, 1}));
}

TEST(AutomorphismCheckTest, RotationOfCycle) {
  const Graph c4 = MakeCycle(4);
  EXPECT_TRUE(IsAutomorphism(c4, Permutation({1, 2, 3, 0})));  // Rotation.
  EXPECT_TRUE(IsAutomorphism(c4, Permutation({0, 3, 2, 1})));  // Reflection.
  EXPECT_FALSE(IsAutomorphism(c4, Permutation({1, 0, 2, 3})));  // Swap.
}

TEST(AutomorphismCheckTest, SizeMismatchIsFalse) {
  EXPECT_FALSE(IsAutomorphism(MakeCycle(4), Permutation::Identity(3)));
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.NumSets(), 5u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));  // Already merged.
  EXPECT_TRUE(uf.Union(2, 3));
  EXPECT_EQ(uf.NumSets(), 3u);
  EXPECT_TRUE(uf.Same(0, 1));
  EXPECT_FALSE(uf.Same(0, 2));
  EXPECT_EQ(uf.SetSize(0), 2u);
  EXPECT_EQ(uf.SetSize(4), 1u);
}

TEST(UnionFindTest, TransitiveMerge) {
  UnionFind uf(6);
  uf.Union(0, 1);
  uf.Union(1, 2);
  uf.Union(3, 4);
  uf.Union(2, 3);
  EXPECT_TRUE(uf.Same(0, 4));
  EXPECT_EQ(uf.SetSize(0), 5u);
  EXPECT_EQ(uf.NumSets(), 2u);
}

TEST(PointOrbitsTest, NoGeneratorsAllSingletons) {
  const auto orbits = PointOrbits(4, {});
  for (VertexId x = 0; x < 4; ++x) EXPECT_EQ(orbits[x], x);
}

TEST(SparsePermutationTest, ImagesMatchTheDenseTable) {
  // (1 4 6)(2 7) on 9 points, moves given out of order.
  const SparsePermutation p({{6, 1}, {2, 7}, {4, 6}, {7, 2}, {1, 4}});
  EXPECT_EQ(p.Moves().front(), (std::pair<VertexId, VertexId>{1, 4}));
  const Permutation dense = p.ToDense(9);
  EXPECT_EQ(dense.ToCycleString(), "(1 4 6)(2 7)");
  for (VertexId x = 0; x < 12; ++x) {
    EXPECT_EQ(p.Image(x), x < 9 ? dense.Image(x) : x) << x;
  }
  EXPECT_EQ(ToDense(9, {p, p})[1], dense);
}

TEST(PointOrbitsTest, RotationMakesOneOrbit) {
  const auto orbits = PointOrbits(4, {Permutation({1, 2, 3, 0})});
  for (VertexId x = 0; x < 4; ++x) EXPECT_EQ(orbits[x], 0u);
}

TEST(PointOrbitsTest, RepsAreOrbitMinima) {
  // (1 3) and (2 4): orbits {0}, {1,3}, {2,4}.
  const auto orbits =
      PointOrbits(5, {Permutation({0, 3, 2, 1, 4}), Permutation({0, 1, 4, 3, 2})});
  EXPECT_EQ(orbits[0], 0u);
  EXPECT_EQ(orbits[1], 1u);
  EXPECT_EQ(orbits[3], 1u);
  EXPECT_EQ(orbits[2], 2u);
  EXPECT_EQ(orbits[4], 2u);
}

}  // namespace
}  // namespace ksym
