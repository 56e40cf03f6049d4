// Unchanged-output goldens for the exact automorphism search and the
// ego-net canonical forms: dyn::PartitionChecksum of Orb(G) for the three
// Table 1 stand-ins and for the exact k = 5 releases of Enron and Hepth,
// and of the neighborhood measure's partition (Fig. 2) of each stand-in.
// The values come from the search as it was before the twin quotient, the
// direct leaf test and sparse generators (that search took about 2 min on
// the Hepth release), so they pin that Orb(G) and the measure's classes
// did not move.
//
// ReleaseBytes pins the release bytes of Algorithm 1 itself: the graph and
// partition checksums of in-memory releases (exact, TDV, vertex-minimal,
// hub-excluded) and of one exact backbone sample. Every other identity check
// compares two outputs of the same copy code, so only these goldens see a
// changed byte. Their values come from the copy code as it was before every
// entry point shared one orbit copying operation. It also pins two
// approximate backbone samples, whose values come from the quota step as it
// was when each draw rescanned every cell's weight (Rng::NextDiscrete).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "attack/measures.h"
#include "aut/orbits.h"
#include "datasets/datasets.h"
#include "dyn/repair.h"
#include "ksym/anonymizer.h"
#include "ksym/minimal.h"
#include "ksym/sampling.h"

namespace ksym {
namespace {

struct StandInGolden {
  std::string name;
  size_t orbits;
  uint64_t orbit_checksum;
  size_t neighborhood_classes;
  uint64_t neighborhood_checksum;
};

TEST(OrbitGoldenTest, StandInOrbitsAndNeighborhoodClasses) {
  const std::vector<StandInGolden> goldens = {
      {"Enron", 105, 0xd337ba1e2a547a6bull, 67, 0x87fe6b24343d6f74ull},
      {"Hepth", 1699, 0x17353b35a782f73aull, 395, 0x8b003b5ad83eb0efull},
      {"Net_trace", 1109, 0x3d7d93583feb8591ull, 169, 0x4bb33538d3eb2449ull},
  };
  const std::vector<Dataset> datasets = MakeAllDatasets();
  ASSERT_EQ(datasets.size(), goldens.size());
  for (size_t i = 0; i < goldens.size(); ++i) {
    const StandInGolden& golden = goldens[i];
    const Graph& graph = datasets[i].graph;
    ASSERT_EQ(datasets[i].name, golden.name);
    const VertexPartition orbits =
        ComputeAutomorphismPartition(graph, {}, nullptr);
    EXPECT_EQ(orbits.NumCells(), golden.orbits) << golden.name;
    EXPECT_EQ(dyn::PartitionChecksum(orbits), golden.orbit_checksum)
        << golden.name;
    const VertexPartition classes =
        PartitionByMeasure(graph, NeighborhoodMeasure(nullptr));
    EXPECT_EQ(classes.NumCells(), golden.neighborhood_classes) << golden.name;
    EXPECT_EQ(dyn::PartitionChecksum(classes), golden.neighborhood_checksum)
        << golden.name;
  }
}

TEST(OrbitGoldenTest, ExactReleaseOrbits) {
  struct ReleaseGolden {
    Graph input;
    size_t vertices;
    size_t edges;
    size_t orbits;
    uint64_t orbit_checksum;
  };
  const ReleaseGolden goldens[] = {
      {MakeEnronLike(), 531, 6929, 105, 0x47d9946dde97812cull},
      {MakeHepthLike(), 9215, 100584, 1698, 0x236b54385ca077f9ull},
  };
  for (const ReleaseGolden& golden : goldens) {
    AnonymizationOptions options;
    options.k = 5;
    const auto release = Anonymize(golden.input, options);
    ASSERT_TRUE(release.ok()) << release.status().ToString();
    const Graph& graph = release->graph;
    ASSERT_EQ(graph.NumVertices(), golden.vertices);
    ASSERT_EQ(graph.NumEdges(), golden.edges);
    const VertexPartition orbits =
        ComputeAutomorphismPartition(graph, {}, nullptr);
    EXPECT_EQ(orbits.NumCells(), golden.orbits) << golden.vertices;
    EXPECT_EQ(dyn::PartitionChecksum(orbits), golden.orbit_checksum)
        << golden.vertices;
    for (const std::vector<VertexId>& orbit : orbits.cells) {
      EXPECT_GE(orbit.size(), 5u);
    }
  }
}

TEST(OrbitGoldenTest, ReleaseBytes) {
  struct BytesGolden {
    std::string name;
    size_t vertices;
    size_t edges;
    uint64_t graph_checksum;
    uint64_t partition_checksum;  // 0 for the sample (no partition).
  };
  const Graph enron = MakeEnronLike();
  const Graph hepth = MakeHepthLike();
  const Graph net_trace = MakeNetTraceLike();
  AnonymizationOptions exact;
  exact.k = 5;
  AnonymizationOptions tdv = exact;
  tdv.use_total_degree_partition = true;
  AnonymizationOptions hubs = exact;
  hubs.requirement = HubExclusionRequirement(
      5, DegreeThresholdForExcludedFraction(hepth, 0.05));

  std::vector<BytesGolden> actual;
  const auto add = [&actual](const std::string& name,
                             const Result<AnonymizationResult>& release) {
    ASSERT_TRUE(release.ok()) << name << ": " << release.status().ToString();
    actual.push_back({name, release->graph.NumVertices(),
                      release->graph.NumEdges(),
                      dyn::GraphContentChecksum(release->graph),
                      dyn::PartitionChecksum(release->partition)});
  };
  add("Enron exact", Anonymize(enron, exact));
  const Result<AnonymizationResult> hepth_release = Anonymize(hepth, exact);
  add("Hepth exact", hepth_release);
  const Result<AnonymizationResult> net_trace_release =
      Anonymize(net_trace, tdv);
  add("Net_trace TDV", net_trace_release);
  add("Enron minimal", AnonymizeMinimalVertices(enron, exact));
  add("Hepth minimal", AnonymizeMinimalVertices(hepth, exact));
  add("Hepth 5% hubs", Anonymize(hepth, hubs));
  ASSERT_TRUE(hepth_release.ok());
  Rng rng(1);
  const auto sample =
      ExactBackboneSample(hepth_release->graph, hepth_release->partition,
                          hepth_release->original_vertices, rng);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  actual.push_back({"Hepth exact sample", sample->NumVertices(),
                    sample->NumEdges(), dyn::GraphContentChecksum(*sample),
                    0});
  // Algorithms 4-5 on the Hepth release (811 quota draws over 1,699 cells,
  // 5 of which fill) and the Net_trace release (3,104 draws over 1,109
  // cells, 34 fill): these pin the draws made after a cell leaves.
  ASSERT_TRUE(net_trace_release.ok());
  for (const auto& [name, release] :
       {std::pair{"Hepth approximate sample", &hepth_release},
        std::pair{"Net_trace approximate sample", &net_trace_release}}) {
    Rng approx_rng(1);
    const auto approx = ApproximateBackboneSample(
        (*release)->graph, (*release)->partition,
        (*release)->original_vertices, approx_rng);
    ASSERT_TRUE(approx.ok()) << approx.status().ToString();
    actual.push_back({name, approx->NumVertices(), approx->NumEdges(),
                      dyn::GraphContentChecksum(*approx), 0});
  }

  const std::vector<BytesGolden> goldens = {
      {"Enron exact", 531, 6929, 0x79b7c4f52f3930f2ull, 0x47d9946dde97812cull},
      {"Hepth exact", 9215, 100584, 0x1b7f1fc4a26f6715ull,
       0xf498193427ef7d32ull},
      {"Net_trace TDV", 8198, 70258, 0x949aa58c97a02285ull,
       0xf297cebe80c5c013ull},
      {"Enron minimal", 528, 6914, 0x4ecebcccce68437dull,
       0x887faba58c487deeull},
      {"Hepth minimal", 8999, 99387, 0x107be6bd8a0e9d32ull,
       0xe5632feaa27f13b8ull},
      {"Hepth 5% hubs", 8667, 53348, 0x333359f1d15b22f9ull,
       0xccbc5c2624f3a0b7ull},
      {"Hepth exact sample", 2510, 4920, 0x8599f02b61491f4cull, 0},
      {"Hepth approximate sample", 2510, 5065, 0x5a1334053dde7f64ull, 0},
      {"Net_trace approximate sample", 4213, 5763, 0x1194f9a4144d90aaull, 0},
  };

  ASSERT_EQ(actual.size(), goldens.size());
  for (size_t i = 0; i < goldens.size(); ++i) {
    const BytesGolden& golden = goldens[i];
    const BytesGolden& got = actual[i];
    ASSERT_EQ(got.name, golden.name);
    EXPECT_EQ(got.vertices, golden.vertices) << golden.name;
    EXPECT_EQ(got.edges, golden.edges) << golden.name;
    EXPECT_EQ(got.graph_checksum, golden.graph_checksum) << golden.name;
    EXPECT_EQ(got.partition_checksum, golden.partition_checksum)
        << golden.name;
  }
}

}  // namespace
}  // namespace ksym
