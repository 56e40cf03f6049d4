// Tests for backbone-based sampling (Algorithms 3-5).

#include "ksym/sampling.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "ksym/anonymizer.h"
#include "stats/distributions.h"
#include "stats/ks.h"

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

AnonymizationResult AnonymizedFigure3(uint32_t k) {
  AnonymizationOptions options;
  options.k = k;
  auto result = Anonymize(Figure3Graph(), options);
  KSYM_CHECK(result.ok());
  return std::move(result).value();
}

TEST(ExactSamplingTest, SampleSizeApproximatesTarget) {
  const AnonymizationResult release = AnonymizedFigure3(3);
  Rng rng(61);
  SampleStats stats;
  const auto sample = ExactBackboneSample(
      release.graph, release.partition, release.original_vertices, rng,
      nullptr, &stats);
  ASSERT_TRUE(sample.ok());
  // May overshoot by at most one cell unit and can undershoot if cells
  // saturate; the original size is always within [backbone, |V(G')|].
  EXPECT_GE(sample->NumVertices(), stats.backbone_vertices);
  EXPECT_LE(sample->NumVertices(), release.graph.NumVertices());
  EXPECT_NEAR(static_cast<double>(sample->NumVertices()),
              static_cast<double>(release.original_vertices), 2.0);
}

TEST(ExactSamplingTest, SampleIsGenerallyDifferentButPlausible) {
  const AnonymizationResult release = AnonymizedFigure3(4);
  Rng rng(67);
  for (int draw = 0; draw < 5; ++draw) {
    const auto sample = ExactBackboneSample(
        release.graph, release.partition, release.original_vertices, rng);
    ASSERT_TRUE(sample.ok());
    // Degree distribution of the sample stays close to the original's.
    const double ks = KolmogorovSmirnovStatistic(
        DegreeValues(Figure3Graph()), DegreeValues(*sample));
    EXPECT_LE(ks, 0.5);
  }
}

TEST(ExactSamplingTest, RejectsMismatchedWeights) {
  const AnonymizationResult release = AnonymizedFigure3(2);
  Rng rng(71);
  const std::vector<double> bad_weights = {1.0};
  EXPECT_FALSE(ExactBackboneSample(release.graph, release.partition, 8, rng,
                                   &bad_weights)
                   .ok());
}

TEST(ExactSamplingTest, BatchEqualsOneSampleAtATime) {
  // DrawSamples computes the backbone once per exact batch; each sample
  // must still be the one ExactBackboneSample draws from rng.Fork(i).
  Rng graph_rng(79);
  AnonymizationOptions options;
  options.k = 3;
  const auto release = Anonymize(BarabasiAlbert(120, 2, graph_rng), options);
  ASSERT_TRUE(release.ok());
  BatchSampleOptions batch;
  batch.num_samples = 8;
  batch.target_vertices = release->original_vertices;
  batch.exact = true;
  const Rng rng(83);
  std::vector<SampleStats> stats;
  const auto samples =
      DrawSamples(release->graph, release->partition, batch, rng, &stats);
  ASSERT_TRUE(samples.ok());
  ASSERT_EQ(samples->size(), batch.num_samples);
  for (size_t i = 0; i < batch.num_samples; ++i) {
    Rng sample_rng = rng.Fork(i);
    SampleStats one_stats;
    const auto one =
        ExactBackboneSample(release->graph, release->partition,
                            release->original_vertices, sample_rng, nullptr,
                            &one_stats);
    ASSERT_TRUE(one.ok());
    EXPECT_TRUE((*samples)[i] == *one) << "sample " << i;
    EXPECT_EQ(stats[i].backbone_vertices, one_stats.backbone_vertices);
    EXPECT_EQ(stats[i].copy_operations, one_stats.copy_operations);
    EXPECT_EQ(stats[i].sampled_vertices, one_stats.sampled_vertices);
  }
}

TEST(ApproxSamplingTest, SelectsExactlyTargetWhenReachable) {
  const AnonymizationResult release = AnonymizedFigure3(3);
  Rng rng(73);
  for (int draw = 0; draw < 10; ++draw) {
    SampleStats stats;
    const auto sample = ApproximateBackboneSample(
        release.graph, release.partition, release.original_vertices, rng,
        nullptr, &stats);
    ASSERT_TRUE(sample.ok());
    EXPECT_EQ(sample->NumVertices(), release.original_vertices);
  }
}

TEST(ApproxSamplingTest, TargetLargerThanGraphClamps) {
  const AnonymizationResult release = AnonymizedFigure3(2);
  Rng rng(79);
  const auto sample = ApproximateBackboneSample(release.graph,
                                                release.partition,
                                                10000, rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->NumVertices(), release.graph.NumVertices());
}

TEST(ApproxSamplingTest, QuotasRespectCells) {
  // With a quota of one per cell (target == number of cells), the sample
  // has at most one vertex per released cell.
  const AnonymizationResult release = AnonymizedFigure3(3);
  const size_t num_cells = release.partition.cells.size();
  Rng rng(83);
  const auto sample = ApproximateBackboneSample(release.graph,
                                                release.partition,
                                                num_cells, rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_LE(sample->NumVertices(), num_cells);
}

TEST(ApproxSamplingTest, WorksOnDisconnectedRelease) {
  const Graph g = DisjointUnion(MakeCycle(4), MakeCycle(4));
  AnonymizationOptions options;
  options.k = 2;
  const auto release = Anonymize(g, options);
  ASSERT_TRUE(release.ok());
  Rng rng(89);
  const auto sample = ApproximateBackboneSample(
      release->graph, release->partition, g.NumVertices(), rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->NumVertices(), g.NumVertices());
}

TEST(ApproxSamplingTest, DeterministicGivenSeed) {
  const AnonymizationResult release = AnonymizedFigure3(3);
  Rng rng1(97);
  Rng rng2(97);
  const auto s1 = ApproximateBackboneSample(release.graph, release.partition,
                                            8, rng1);
  const auto s2 = ApproximateBackboneSample(release.graph, release.partition,
                                            8, rng2);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_TRUE(*s1 == *s2);
}

TEST(ApproxSamplingTest, LargerReleaseStillTracksOriginalDegrees) {
  // End-to-end on a medium random graph: anonymize at k=5, sample back to
  // the original size, compare degree distributions.
  Rng gen_rng(101);
  const Graph g = BarabasiAlbert(120, 2, gen_rng);
  AnonymizationOptions options;
  options.k = 5;
  options.use_total_degree_partition = true;  // Fast path on larger inputs.
  const auto release = Anonymize(g, options);
  ASSERT_TRUE(release.ok());
  Rng rng(103);
  double total_ks = 0.0;
  constexpr int kDraws = 5;
  for (int draw = 0; draw < kDraws; ++draw) {
    const auto sample = ApproximateBackboneSample(
        release->graph, release->partition, g.NumVertices(), rng);
    ASSERT_TRUE(sample.ok());
    total_ks += KolmogorovSmirnovStatistic(DegreeValues(g),
                                           DegreeValues(*sample));
  }
  EXPECT_LE(total_ks / kDraws, 0.35);
}

TEST(InverseDegreeWeightsTest, InverselyProportional) {
  const Graph star = MakeStar(5);
  const VertexPartition orbits = ComputeAutomorphismPartition(star, {}, nullptr);
  const auto weights = InverseDegreeCellWeights(star, orbits);
  ASSERT_EQ(weights.size(), 2u);
  const uint32_t hub_cell = orbits.cell_of[0];
  const uint32_t leaf_cell = orbits.cell_of[1];
  EXPECT_DOUBLE_EQ(weights[hub_cell], 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(weights[leaf_cell], 1.0);
}

}  // namespace
}  // namespace ksym
