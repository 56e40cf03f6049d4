// Unchanged-output goldens for the exact automorphism search and the
// ego-net canonical forms: dyn::PartitionChecksum of Orb(G) for the three
// Table 1 stand-ins and for the exact k = 5 releases of Enron and Hepth,
// and of the neighborhood measure's partition (Fig. 2) of each stand-in.
// The values come from the search as it was before the twin quotient, the
// direct leaf test and sparse generators (that search took about 2 min on
// the Hepth release), so they pin that Orb(G) and the measure's classes
// did not move.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "attack/measures.h"
#include "aut/orbits.h"
#include "datasets/datasets.h"
#include "dyn/repair.h"
#include "ksym/anonymizer.h"

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

}  // namespace
}  // namespace ksym
