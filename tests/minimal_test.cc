// Tests for vertex-minimal anonymization (Section 5.1).

#include "ksym/minimal.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "ksym/verifier.h"

namespace ksym {
namespace {

TEST(MinimalTest, Section51Example) {
  // The paper's example: an orbit {v1, v2} of two L(V)-copies must reach
  // k = 3. Whole-orbit copying adds 2 vertices (cell size 4); minimal
  // copying adds 1 (cell size 3). Graph: two pendants on a path.
  GraphBuilder b(5);
  b.AddEdge(0, 2);  // Pendant v1 on v3.
  b.AddEdge(1, 2);  // Pendant v2 on v3.
  b.AddEdge(2, 3);  // Tail of length 2 keeps 3 out of the pendant orbit.
  b.AddEdge(3, 4);
  const Graph g = b.Build();

  AnonymizationOptions options;
  options.k = 3;

  const auto basic = Anonymize(g, options);
  ASSERT_TRUE(basic.ok());

  const auto minimal = AnonymizeMinimalVertices(g, options);
  ASSERT_TRUE(minimal.ok());

  EXPECT_LT(minimal->vertices_added, basic->vertices_added);
  EXPECT_TRUE(IsKSymmetric(minimal->graph, 3));
  EXPECT_TRUE(IsSupergraphOf(minimal->graph, g));

  // The pendant orbit {0, 1} needed exactly one extra vertex.
  const auto& cells = minimal->partition.cells;
  const auto pendant_cell = cells[minimal->partition.cell_of[0]];
  EXPECT_EQ(pendant_cell.size(), 3u);
}

TEST(MinimalTest, NeverWorseThanBasic) {
  Rng rng(107);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = ErdosRenyiGnm(20, 30, rng);
    for (uint32_t k : {2u, 3u, 4u}) {
      AnonymizationOptions options;
      options.k = k;
      const auto basic = Anonymize(g, options);
      const auto minimal = AnonymizeMinimalVertices(g, options);
      ASSERT_TRUE(basic.ok());
      ASSERT_TRUE(minimal.ok());
      EXPECT_LE(minimal->vertices_added, basic->vertices_added);
      EXPECT_TRUE(IsKSymmetric(minimal->graph, k));
      EXPECT_TRUE(IsSupergraphOf(minimal->graph, g));
    }
  }
}

TEST(MinimalTest, ReleasedPartitionIsSubAutomorphism) {
  GraphBuilder b(5);
  b.AddEdge(0, 3);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  const Graph g = b.Build();  // Three pendants + tail.
  AnonymizationOptions options;
  options.k = 5;
  const auto minimal = AnonymizeMinimalVertices(g, options);
  ASSERT_TRUE(minimal.ok());
  EXPECT_TRUE(
      IsCellwiseSubAutomorphismPartition(minimal->graph, minimal->partition));
}

TEST(MinimalTest, StarLeavesGrowOneAtATime) {
  // Star leaves are singleton components with identical externals: minimal
  // copying adds exactly k - (n-1) leaves when k exceeds the leaf count.
  const Graph star = MakeStar(4);  // 3 leaves.
  AnonymizationOptions options;
  options.k = 5;
  const auto minimal = AnonymizeMinimalVertices(star, options);
  ASSERT_TRUE(minimal.ok());
  // Leaves: need 5, have 3 -> +2. Hub: needs 5, has 1 -> +4 (fallback,
  // single component). Total 6.
  const auto basic = Anonymize(star, options);
  ASSERT_TRUE(basic.ok());
  EXPECT_EQ(minimal->vertices_added, 6u);
  EXPECT_LE(minimal->vertices_added, basic->vertices_added);
  EXPECT_TRUE(IsKSymmetric(minimal->graph, 5));
}

TEST(MinimalTest, FallsBackWhenComponentsAreNotCopies) {
  // Two pendants attached to *different* hubs (Figure 7(b) situation):
  // copying only one of them would break hub symmetry, so the minimal
  // anonymizer must fall back to whole-orbit copying and stay correct.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 3);
  b.AddEdge(3, 2);  // Path 0-1-3-2: orbits {0,2}, {1,3}.
  const Graph g = b.Build();
  AnonymizationOptions options;
  options.k = 3;
  const auto minimal = AnonymizeMinimalVertices(g, options);
  ASSERT_TRUE(minimal.ok());
  EXPECT_TRUE(IsKSymmetric(minimal->graph, 3));
  EXPECT_TRUE(
      IsCellwiseSubAutomorphismPartition(minimal->graph, minimal->partition));
}

TEST(MinimalTest, CopiesTheWholeCellWhenOnlySomeComponentsAreCopies) {
  // Hubs 0 and 1 share an orbit; pendants 2, 3 hang off 0 and 4, 5 off 1.
  // In the pendant cell {2, 3, 4, 5} the single-vertex components 2 and 3
  // are L(V)-copies, but 4 and 5 copy neither: copying vertex 2 alone would
  // give hub 0 a third pendant and hub 1 two, so the cell is copied whole.
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  b.AddEdge(1, 4);
  b.AddEdge(1, 5);
  const Graph g = b.Build();
  AnonymizationOptions options;
  options.k = 5;
  const auto minimal = AnonymizeMinimalVertices(g, options);
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->partition.CellSizeOf(2), 8u);
  EXPECT_TRUE(
      IsCellwiseSubAutomorphismPartition(minimal->graph, minimal->partition));
}

TEST(MinimalTest, HubExclusionComposes) {
  const Graph star = MakeStar(10);
  AnonymizationOptions options;
  options.k = 4;
  options.requirement = HubExclusionRequirement(4, 5);
  const auto minimal = AnonymizeMinimalVertices(star, options);
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->vertices_added, 0u);  // Leaves already >= 4; hub excluded.
}

TEST(MinimalTest, TdvPathReportsTheRefinementTrace) {
  // The from-scratch overload shares Anonymize's initial-partition step, so
  // its TDV run reports the same refinement trace hash.
  Rng rng(19);
  const Graph g = BarabasiAlbert(200, 2, rng);
  AnonymizationOptions options;
  options.k = 3;
  options.use_total_degree_partition = true;
  const auto basic = Anonymize(g, options);
  const auto minimal = AnonymizeMinimalVertices(g, options);
  ASSERT_TRUE(basic.ok());
  ASSERT_TRUE(minimal.ok());
  EXPECT_NE(basic->refinement_trace, 0u);
  EXPECT_EQ(minimal->refinement_trace, basic->refinement_trace);
}

}  // namespace
}  // namespace ksym
