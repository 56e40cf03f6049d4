// Tests for structural measures, their key interning and re-identification
// statistics (Section 2.2, Figure 2 machinery).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "attack/measures.h"
#include "attack/reidentification.h"
#include "common/intern.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "ksym/anonymizer.h"

namespace ksym {
namespace {

// The paper's Figure 1(b) reconstruction (see orbits_test).
Graph Figure1Graph() {
  GraphBuilder b(8);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(1, 3);
  b.AddEdge(1, 4);
  b.AddEdge(3, 4);
  b.AddEdge(3, 5);
  b.AddEdge(4, 7);
  b.AddEdge(5, 6);
  b.AddEdge(6, 7);
  return b.Build();
}

// The interning reference: a std::map of whole keys, where the first
// occurrence in index order takes the next label.
template <typename Key>
std::vector<uint32_t> MapInternLabels(const std::vector<Key>& keys) {
  std::map<Key, uint32_t> table;
  std::vector<uint32_t> labels;
  for (const Key& key : keys) {
    labels.push_back(
        table.emplace(key, static_cast<uint32_t>(table.size())).first->second);
  }
  return labels;
}

TEST(InternLabelsTest, MatchesMapReferenceOnRandomKeys) {
  Rng rng(11);
  for (int round = 0; round < 300; ++round) {
    // Few distinct values in half the rounds, so most keys repeat; short
    // vectors, so keys that are prefixes of others and empty keys occur.
    const size_t n = rng.NextBounded(400);
    const uint64_t range = 1 + rng.NextBounded(round % 2 == 0 ? 4 : 2000);
    std::vector<uint32_t> scalars;
    std::vector<uint64_t> wide;
    std::vector<std::vector<uint32_t>> vectors;
    std::vector<std::vector<uint64_t>> wide_vectors;
    std::vector<std::pair<std::vector<uint32_t>, uint64_t>> pairs;
    for (size_t i = 0; i < n; ++i) {
      scalars.push_back(static_cast<uint32_t>(rng.NextBounded(range)));
      wide.push_back(rng.NextBounded(range) << (i % 2 == 0 ? 0 : 40));
      std::vector<uint32_t> vector(rng.NextBounded(4));
      for (uint32_t& x : vector) x = static_cast<uint32_t>(rng.NextBounded(3));
      std::vector<uint64_t> wide_vector(rng.NextBounded(3));
      for (uint64_t& x : wide_vector) x = rng.NextBounded(range) << 33;
      vectors.push_back(vector);
      wide_vectors.push_back(std::move(wide_vector));
      pairs.emplace_back(std::move(vector), rng.NextBounded(2));
    }
    EXPECT_EQ(InternLabels(scalars), MapInternLabels(scalars)) << round;
    EXPECT_EQ(InternLabels(wide), MapInternLabels(wide)) << round;
    EXPECT_EQ(InternLabels(vectors), MapInternLabels(vectors)) << round;
    EXPECT_EQ(InternLabels(wide_vectors), MapInternLabels(wide_vectors))
        << round;
    EXPECT_EQ(InternLabels(pairs), MapInternLabels(pairs)) << round;
  }
}

TEST(MeasuresTest, DegreePartitionGroupsByDegree) {
  const Graph g = MakeStar(5);
  const VertexPartition p = PartitionByMeasure(g, DegreeMeasure());
  EXPECT_EQ(p.NumCells(), 2u);
  EXPECT_EQ(p.CellSizeOf(0), 1u);  // Hub.
  EXPECT_EQ(p.CellSizeOf(1), 4u);  // Leaves.
}

TEST(MeasuresTest, TrianglePartition) {
  // Triangle with a tail: vertices on the triangle have tri=1, the tail 0.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(2, 3);
  const VertexPartition p = PartitionByMeasure(b.Build(), TriangleMeasure());
  EXPECT_EQ(p.cell_of[0], p.cell_of[1]);
  EXPECT_EQ(p.cell_of[0], p.cell_of[2]);
  EXPECT_NE(p.cell_of[0], p.cell_of[3]);
}

TEST(MeasuresTest, NeighborDegreeSequenceRefinesDegree) {
  // Measure-induced partitions: Deg(v) always refines deg(v).
  Rng rng(109);
  const Graph g = ErdosRenyiGnm(40, 80, rng);
  const VertexPartition by_degree = PartitionByMeasure(g, DegreeMeasure());
  const VertexPartition by_nds =
      PartitionByMeasure(g, NeighborDegreeSequenceMeasure());
  // Same Deg(v) implies same deg(v) (sequence length).
  for (const auto& cell : by_nds.cells) {
    const uint32_t degree_cell = by_degree.cell_of[cell.front()];
    for (VertexId v : cell) EXPECT_EQ(by_degree.cell_of[v], degree_cell);
  }
}

TEST(MeasuresTest, CombinedLabelsInternTheDegreeSequenceTrianglePairs) {
  Rng rng(26);
  for (int trial = 0; trial < 120; ++trial) {
    const size_t n = 5 + rng.NextBounded(60);
    const Graph g = trial % 2 == 0
                        ? ErdosRenyiGnm(n, rng.NextBounded(3 * n), rng)
                        : BarabasiAlbert(n, 1 + rng.NextBounded(3), rng);
    const std::vector<uint64_t> tri = TriangleCounts(g);
    std::vector<std::pair<std::vector<size_t>, uint64_t>> keys;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      std::vector<size_t> degrees;
      for (VertexId u : g.Neighbors(v)) degrees.push_back(g.Degree(u));
      std::sort(degrees.begin(), degrees.end());
      keys.emplace_back(std::move(degrees), tri[v]);
    }
    const std::vector<uint32_t> expected = MapInternLabels(keys);
    EXPECT_EQ(CombinedLabels(NeighborDegreeSequenceMeasure().eval(g),
                             TriangleMeasure().eval(g)),
              expected)
        << trial;
    EXPECT_EQ(CombinedMeasure().eval(g), expected) << trial;
  }
}

TEST(MeasuresTest, CombinedRefinesBothComponents) {
  Rng rng(113);
  const Graph g = BarabasiAlbert(60, 2, rng);
  const VertexPartition combined = PartitionByMeasure(g, CombinedMeasure());
  const VertexPartition by_tri = PartitionByMeasure(g, TriangleMeasure());
  const VertexPartition by_nds =
      PartitionByMeasure(g, NeighborDegreeSequenceMeasure());
  EXPECT_GE(combined.NumCells(), by_tri.NumCells());
  EXPECT_GE(combined.NumCells(), by_nds.NumCells());
}

TEST(MeasuresTest, NeighborhoodRefinesDegreeAndTriangle) {
  Rng rng(211);
  const Graph g = BarabasiAlbert(50, 2, rng);
  const VertexPartition by_deg = PartitionByMeasure(g, DegreeMeasure());
  const VertexPartition by_tri = PartitionByMeasure(g, TriangleMeasure());
  const VertexPartition by_nbh = PartitionByMeasure(g, NeighborhoodMeasure());
  // Vertices equal under the neighborhood class share degree and triangles.
  for (const auto& cell : by_nbh.cells) {
    for (VertexId v : cell) {
      EXPECT_EQ(by_deg.cell_of[v], by_deg.cell_of[cell.front()]);
      EXPECT_EQ(by_tri.cell_of[v], by_tri.cell_of[cell.front()]);
    }
  }
}

TEST(MeasuresTest, NeighborhoodDistinguishesLocalStructure) {
  // Two degree-2 vertices, one on a triangle and one on a path, are
  // indistinguishable by degree but separated by the neighborhood measure.
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);  // Triangle 0-1-2.
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);  // Tail; vertex 4 has degree 2, no triangle.
  const Graph g = b.Build();
  const VertexPartition by_deg = PartitionByMeasure(g, DegreeMeasure());
  const VertexPartition by_nbh = PartitionByMeasure(g, NeighborhoodMeasure());
  EXPECT_EQ(by_deg.cell_of[0], by_deg.cell_of[4]);  // Both degree 2.
  EXPECT_NE(by_nbh.cell_of[0], by_nbh.cell_of[4]);
}

TEST(MeasuresTest, MeasurePartitionsAreCoarserThanOrbits) {
  // Theory: Orb(v) is contained in every candidate set, so every measure
  // partition is coarser than Orb(G).
  const Graph g = Figure1Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  for (const auto& measure :
       {DegreeMeasure(), TriangleMeasure(), NeighborDegreeSequenceMeasure(),
        NeighborhoodMeasure(), CombinedMeasure()}) {
    const VertexPartition p = PartitionByMeasure(g, measure);
    for (const auto& orbit : orbits.cells) {
      const uint32_t cell = p.cell_of[orbit.front()];
      for (VertexId v : orbit) {
        EXPECT_EQ(p.cell_of[v], cell) << measure.name;
      }
    }
  }
}

TEST(MeasuresTest, CandidateSetExample1) {
  // Example 1: knowledge P2 "Bob has 2 neighbours with degree 1" uniquely
  // identifies Bob (vertex 1 in our 0-indexed reconstruction). The
  // neighbour-degree-sequence measure is at least that precise.
  const Graph g = Figure1Graph();
  const auto candidates =
      CandidateSet(g, NeighborDegreeSequenceMeasure(), 1);
  EXPECT_EQ(candidates, (std::vector<VertexId>{1}));
}

TEST(ReidentificationTest, PerfectMeasureScoresOne) {
  const Graph g = Figure1Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  const ReidentificationStats stats = CompareToOrbits(orbits, orbits);
  EXPECT_DOUBLE_EQ(stats.r_f, 1.0);
  EXPECT_DOUBLE_EQ(stats.s_f, 1.0);
}

TEST(ReidentificationTest, WeakMeasureScoresLow) {
  // The unit partition has no singletons and maximal pair count.
  const Graph g = Figure1Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  const VertexPartition unit = VertexPartition::FromCells(
      g.NumVertices(), {{0, 1, 2, 3, 4, 5, 6, 7}});
  const ReidentificationStats stats = CompareToOrbits(unit, orbits);
  EXPECT_DOUBLE_EQ(stats.r_f, 0.0);
  EXPECT_LT(stats.s_f, 0.2);
}

TEST(ReidentificationTest, StatsAreInUnitInterval) {
  Rng rng(127);
  const Graph g = ErdosRenyiGnm(50, 90, rng);
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  for (const auto& measure :
       {DegreeMeasure(), TriangleMeasure(), CombinedMeasure()}) {
    const ReidentificationStats stats = EvaluateMeasure(g, measure, orbits);
    EXPECT_GE(stats.r_f, 0.0);
    EXPECT_LE(stats.r_f, 1.0);
    EXPECT_GE(stats.s_f, 0.0);
    EXPECT_LE(stats.s_f, 1.0);
  }
}

TEST(ReidentificationTest, CombinedDominatesSingleMeasures) {
  // The monotonicity behind Figure 2: refining knowledge can only increase
  // re-identification power.
  Rng rng(131);
  const Graph g = BarabasiAlbert(80, 2, rng);
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  const auto deg = EvaluateMeasure(g, DegreeMeasure(), orbits);
  const auto tri = EvaluateMeasure(g, TriangleMeasure(), orbits);
  const auto combined = EvaluateMeasure(g, CombinedMeasure(), orbits);
  EXPECT_GE(combined.r_f, deg.r_f);
  EXPECT_GE(combined.r_f, tri.r_f);
  EXPECT_GE(combined.s_f, deg.s_f);
  EXPECT_GE(combined.s_f, tri.s_f);
}

TEST(ReidentificationTest, KSymmetricGraphResistsAllMeasures) {
  // After k-symmetry anonymization no measure has any unique
  // re-identification power, and every candidate set has >= k members.
  const Graph g = Figure1Graph();
  AnonymizationOptions options;
  options.k = 3;
  const auto release = Anonymize(g, options);
  ASSERT_TRUE(release.ok());
  for (const auto& measure :
       {DegreeMeasure(), TriangleMeasure(), NeighborDegreeSequenceMeasure(),
        NeighborhoodMeasure(), CombinedMeasure()}) {
    const VertexPartition p = PartitionByMeasure(release->graph, measure);
    for (const auto& cell : p.cells) {
      EXPECT_GE(cell.size(), 3u) << measure.name;
    }
  }
}

}  // namespace
}  // namespace ksym
