// Tests for utility statistics: distributions, K-S, resilience,
// multi-sample aggregation.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "ksym/anonymizer.h"
#include "ksym/sampling.h"
#include "stats/aggregate.h"
#include "stats/distributions.h"
#include "stats/ks.h"
#include "stats/resilience.h"

namespace ksym {
namespace {

TEST(DistributionsTest, DegreeValues) {
  const auto values = DegreeValues(MakeStar(4));
  EXPECT_EQ(values, (std::vector<double>{3, 1, 1, 1}));
}

TEST(DistributionsTest, PathLengthsOnPathGraph) {
  Rng rng(137);
  const auto lengths = SampledPathLengths(MakePath(10), 200, rng);
  ASSERT_EQ(lengths.size(), 200u);
  for (double l : lengths) {
    EXPECT_GE(l, 1.0);
    EXPECT_LE(l, 9.0);
  }
}

TEST(DistributionsTest, PathLengthsSkipDisconnectedPairs) {
  Rng rng(139);
  const Graph g = DisjointUnion(MakeComplete(3), MakeComplete(3));
  const auto lengths = SampledPathLengths(g, 100, rng);
  for (double l : lengths) EXPECT_DOUBLE_EQ(l, 1.0);  // Within a K_3.
  EXPECT_FALSE(lengths.empty());
}

TEST(DistributionsTest, PathLengthsTinyGraphs) {
  Rng rng(149);
  EXPECT_TRUE(SampledPathLengths(Graph(0), 10, rng).empty());
  EXPECT_TRUE(SampledPathLengths(Graph(1), 10, rng).empty());
}

// Graphs for the path-length oracles: G(n, m) below and above the
// connectivity threshold, BA, Watts-Strogatz and disjoint unions, plus
// paths, stars and odd and even cycles, on which the two frontiers of a
// bidirectional search meet on an edge or on a vertex.
std::vector<Graph> PathOracleGraphs() {
  Rng rng(20261017);
  std::vector<Graph> graphs;
  for (size_t n : {1, 2, 3, 16, 41}) graphs.push_back(MakePath(n));
  for (size_t n : {3, 4, 15, 16, 33}) graphs.push_back(MakeCycle(n));
  for (size_t n : {2, 9}) graphs.push_back(MakeStar(n));
  graphs.push_back(Graph(6));
  graphs.push_back(MakeGrid(6, 9));
  graphs.push_back(MakeBalancedTree(3, 4));
  graphs.push_back(MakeHypercube(5));
  graphs.push_back(ErdosRenyiGnm(120, 60, rng));
  graphs.push_back(ErdosRenyiGnm(120, 110, rng));
  graphs.push_back(ErdosRenyiGnm(150, 600, rng));
  graphs.push_back(ErdosRenyiGnm(80, 500, rng));
  graphs.push_back(BarabasiAlbert(150, 1, rng));
  graphs.push_back(BarabasiAlbert(120, 2, rng));
  graphs.push_back(BarabasiAlbert(100, 5, rng));
  graphs.push_back(WattsStrogatz(120, 2, 0.0, rng));
  graphs.push_back(WattsStrogatz(120, 2, 0.05, rng));
  graphs.push_back(WattsStrogatz(150, 3, 0.2, rng));
  graphs.push_back(DisjointUnion(MakePath(20), MakeCycle(11)));
  graphs.push_back(DisjointUnion(MakeStar(7), MakeComplete(5)));
  graphs.push_back(DisjointUnion(ErdosRenyiGnm(60, 70, rng),
                                 BarabasiAlbert(50, 2, rng)));
  graphs.push_back(
      DisjointUnion(WattsStrogatz(60, 2, 0.1, rng), Graph(10)));
  return graphs;
}

TEST(PairDistanceTest, EqualsBfsOnEveryOrderedPair) {
  std::vector<int64_t> dist;
  std::vector<VertexId> queue;
  for (const Graph& graph : PathOracleGraphs()) {
    // One instance for every pair, so marks left by an earlier pair would
    // show up as wrong distances.
    PairDistance distance(graph);
    const VertexId n = static_cast<VertexId>(graph.NumVertices());
    for (VertexId s = 0; s < n; ++s) {
      BfsDistancesInto(graph, s, dist, queue);
      for (VertexId t = 0; t < n; ++t) {
        ASSERT_EQ(distance(s, t), dist[t])
            << "n=" << n << " m=" << graph.NumEdges() << " s=" << s
            << " t=" << t;
      }
    }
  }
}

// SampledPathLengths' protocol written out with full BFS: batches sized by
// the outstanding need and the attempt budget, every pair of a batch drawn
// before any distance, then one BFS per pair, accepted in draw order.
std::vector<double> ReferencePathLengths(const Graph& graph, size_t num_pairs,
                                         Rng& rng) {
  std::vector<double> lengths;
  const size_t n = graph.NumVertices();
  if (n < 2 || num_pairs == 0) return lengths;
  std::vector<int64_t> dist;
  std::vector<VertexId> queue;
  std::vector<std::pair<VertexId, VertexId>> pairs;
  size_t attempts = 0;
  const size_t max_attempts = num_pairs * 20;
  while (lengths.size() < num_pairs && attempts < max_attempts) {
    const size_t batch =
        std::min(num_pairs - lengths.size(), max_attempts - attempts);
    attempts += batch;
    pairs.clear();
    for (size_t i = 0; i < batch; ++i) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      pairs.emplace_back(u, v);
    }
    for (const auto& [u, v] : pairs) {
      if (lengths.size() == num_pairs) break;
      if (u == v) continue;
      BfsDistancesInto(graph, u, dist, queue);
      if (dist[v] >= 0) lengths.push_back(static_cast<double>(dist[v]));
    }
  }
  return lengths;
}

void ExpectPathLengthsMatchReference(const Graph& graph, size_t num_pairs,
                                     uint64_t seed) {
  Rng rng(seed);
  Rng reference_rng(seed);
  EXPECT_EQ(SampledPathLengths(graph, num_pairs, rng),
            ReferencePathLengths(graph, num_pairs, reference_rng))
      << "n=" << graph.NumVertices() << " pairs=" << num_pairs;
  EXPECT_EQ(rng.Next(), reference_rng.Next()) << "Rng state diverged";
}

TEST(DistributionsTest, PathLengthsMatchBfsReference) {
  uint64_t seed = 1000;
  for (const Graph& graph : PathOracleGraphs()) {
    for (size_t num_pairs : {1, 37, 500}) {
      ExpectPathLengthsMatchReference(graph, num_pairs, seed++);
    }
  }
}

TEST(DistributionsTest, PathLengthsMatchBfsReferenceOnBackboneSamples) {
  Rng rng(211);
  const Graph graph = BarabasiAlbert(200, 2, rng);
  AnonymizationOptions options;
  options.k = 3;
  const auto release = Anonymize(graph, options);
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  uint64_t seed = 2000;
  ExpectPathLengthsMatchReference(release->graph, 500, seed++);
  for (const bool exact : {false, true}) {
    BatchSampleOptions sample_options;
    sample_options.num_samples = 15;
    sample_options.target_vertices = release->original_vertices;
    sample_options.exact = exact;
    const auto samples = DrawSamples(release->graph, release->partition,
                                     sample_options, Rng(seed++));
    ASSERT_TRUE(samples.ok()) << samples.status().ToString();
    for (const Graph& sample : *samples) {
      ExpectPathLengthsMatchReference(sample, 500, seed++);
    }
  }
}

TEST(DistributionsTest, PathLengthsGolden) {
  // Two small components among 80 isolated vertices: connected pairs are
  // rare, so the 20x attempt budget ends the sampling at 17 of 30.
  const Graph graph =
      DisjointUnion(DisjointUnion(MakeCycle(15), MakePath(9)), Graph(80));
  Rng rng(2026);
  EXPECT_EQ(SampledPathLengths(graph, 30, rng),
            (std::vector<double>{3, 7, 1, 2, 1, 5, 1, 6, 4, 7, 4, 2, 7, 1, 3,
                                 4, 5}));
  EXPECT_EQ(rng.Next(), 0x4de499b7e4b5be23u);
}

TEST(DistributionsTest, Histogram) {
  const auto h = Histogram({0, 1, 1, 3.7, 3.2});
  ASSERT_EQ(h.size(), 4u);
  EXPECT_EQ(h[0], 1u);
  EXPECT_EQ(h[1], 2u);
  EXPECT_EQ(h[2], 0u);
  EXPECT_EQ(h[3], 2u);
}

TEST(DistributionsTest, BinnedHistogramClamps) {
  const auto h = BinnedHistogram({-0.5, 0.0, 0.49, 0.51, 1.0, 2.0}, 0, 1, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 3u);  // -0.5 (clamped), 0.0, 0.49.
  EXPECT_EQ(h[1], 3u);  // 0.51, 1.0, 2.0 (clamped).
}

TEST(KsTest, IdenticalSamplesZero) {
  EXPECT_DOUBLE_EQ(KolmogorovSmirnovStatistic({1, 2, 3}, {3, 2, 1}), 0.0);
}

TEST(KsTest, DisjointSupportsOne) {
  EXPECT_DOUBLE_EQ(KolmogorovSmirnovStatistic({1, 1, 1}, {5, 5, 5}), 1.0);
}

TEST(KsTest, KnownValue) {
  // a = {1,2}, b = {2,3}: CDFs differ by 0.5 just below 2 and at 2.
  EXPECT_DOUBLE_EQ(KolmogorovSmirnovStatistic({1, 2}, {2, 3}), 0.5);
}

TEST(KsTest, EmptyHandling) {
  EXPECT_DOUBLE_EQ(KolmogorovSmirnovStatistic({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(KolmogorovSmirnovStatistic({1.0}, {}), 1.0);
}

TEST(KsTest, SymmetricInArguments) {
  const std::vector<double> a = {1, 2, 2, 4, 7};
  const std::vector<double> b = {1, 3, 5};
  EXPECT_DOUBLE_EQ(KolmogorovSmirnovStatistic(a, b),
                   KolmogorovSmirnovStatistic(b, a));
}

TEST(KsTest, DifferentSizesSupported) {
  // a uniform over {0..9} x100, b uniform over {0..4} x50: D = 0.5.
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 100; ++i) a.push_back(i % 10);
  for (int i = 0; i < 50; ++i) b.push_back(i % 5);
  EXPECT_NEAR(KolmogorovSmirnovStatistic(a, b), 0.5, 1e-9);
}

TEST(ResilienceTest, CompleteGraphResilient) {
  const auto curve = ResilienceCurve(MakeComplete(20), 5, 0.5);
  ASSERT_EQ(curve.size(), 5u);
  EXPECT_DOUBLE_EQ(curve.front().first, 0.0);
  EXPECT_DOUBLE_EQ(curve.front().second, 1.0);
  // Removing any fraction leaves one clique: LCC = remaining.
  for (const auto& [fraction, lcc] : curve) {
    EXPECT_NEAR(lcc, 1.0 - fraction, 0.051);
  }
}

TEST(ResilienceTest, StarShattersImmediately) {
  const auto curve = ResilienceCurve(MakeStar(100), 3, 0.2);
  // Removing the hub (first by degree) disconnects everything.
  EXPECT_DOUBLE_EQ(curve[0].second, 1.0);
  EXPECT_NEAR(curve[1].second, 1.0 / 100.0, 1e-9);
}

TEST(ResilienceTest, MonotoneNonIncreasing) {
  Rng rng(151);
  const Graph g = BarabasiAlbert(150, 2, rng);
  const auto curve = ResilienceCurve(g, 10, 0.6);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].second, curve[i - 1].second + 1e-12);
  }
}

TEST(AggregateTest, CompareUtilityOfIdenticalGraphs) {
  Rng rng(157);
  const Graph g = ErdosRenyiGnm(60, 120, rng);
  const UtilityDistance d = CompareUtility(g, g, 300, rng);
  EXPECT_DOUBLE_EQ(d.ks_degree, 0.0);
  EXPECT_DOUBLE_EQ(d.ks_clustering, 0.0);
  EXPECT_LE(d.ks_path_length, 0.15);  // Sampling noise only.
}

TEST(AggregateTest, PooledConvergenceSeriesShrinks) {
  // Pooling samples from the original's own distribution converges to it.
  Rng rng(163);
  const Graph original = BarabasiAlbert(100, 2, rng);
  std::vector<Graph> samples;
  for (int i = 0; i < 12; ++i) {
    // Independent draws from the same model: same degree law family.
    samples.push_back(BarabasiAlbert(100, 2, rng));
  }
  const auto series = PooledKsConvergence(original, samples,
                                      [](const Graph& g) { return DegreeValues(g); });
  ASSERT_EQ(series.size(), 12u);
  // Later pooled estimates should not be dramatically worse than early
  // ones; and all values are valid K-S statistics.
  for (double d : series) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
  EXPECT_LE(series.back(), series.front() + 0.1);
}

TEST(AggregateTest, MeanConvergenceIsRunningMean) {
  Rng rng(167);
  const Graph original = MakeCycle(30);
  const std::vector<Graph> samples = {MakeCycle(30), MakePath(30)};
  const auto series = MeanKsConvergence(original, samples,
                                      [](const Graph& g) { return DegreeValues(g); });
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], 0.0);  // Identical first sample.
  const double d2 = KolmogorovSmirnovStatistic(DegreeValues(original),
                                               DegreeValues(MakePath(30)));
  EXPECT_DOUBLE_EQ(series[1], d2 / 2.0);
}

}  // namespace
}  // namespace ksym
