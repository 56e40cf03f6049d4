// The tentpole acceptance test (DESIGN.md §11): AnonymizeSharded, chained
// manifest-in → anonymized shard set out, must produce a release that is
// *byte-identical* after `merge` to WriteReleaseCsrFile of the in-memory
// Anonymize run — across shard counts and thread counts — with matching
// refinement trace hash and cost counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "ksym/anonymizer.h"
#include "ksym/release_io.h"
#include "ksym/sharded_anonymizer.h"
#include "shard/partitioner.h"
#include "shard/sharded_graph.h"

namespace ksym {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

/// In-memory reference: Anonymize (TDV path, same as the sharded pipeline)
/// and the binary release bytes it would publish.
struct Reference {
  AnonymizationResult result;
  std::vector<char> release_bytes;
};

Reference MakeReference(const Graph& graph, const AnonymizationOptions& options,
                        const std::string& tag) {
  Reference ref;
  auto result = Anonymize(graph, options);
  EXPECT_TRUE(result.ok()) << result.status();
  ref.result = std::move(*result);
  const std::string path = TempPath("ref_" + tag + ".ksymcsr");
  EXPECT_TRUE(WriteReleaseCsrFile(MakeReleaseTriple(ref.result), path).ok());
  ref.release_bytes = ReadFileBytes(path);
  return ref;
}

/// Runs the full out-of-core chain — split → AnonymizeSharded → merge →
/// re-emit as one .ksymcsr — and byte-compares against the reference.
void CheckShardedMatches(const Graph& graph, const Reference& ref,
                         const ShardedAnonymizationOptions& options,
                         uint32_t shards, const std::string& tag) {
  const std::string prefix = TempPath("sa_in_" + tag);
  PartitionOptions split;
  split.num_shards = shards;
  const auto manifest = Partitioner::Split(graph, {}, split, prefix);
  ASSERT_TRUE(manifest.ok()) << manifest.status();

  const auto sharded = ShardedGraph::Open(prefix + ".manifest");
  ASSERT_TRUE(sharded.ok()) << sharded.status();

  const std::string out_prefix = TempPath("sa_out_" + tag);
  const auto result = AnonymizeSharded(*sharded, options, out_prefix);
  ASSERT_TRUE(result.ok()) << result.status();

  // Trace hash and Algorithm 1 cost accounting must match exactly.
  EXPECT_EQ(result->refinement_trace, ref.result.refinement_trace);
  EXPECT_EQ(result->original_vertices, ref.result.original_vertices);
  EXPECT_EQ(result->vertices_added, ref.result.vertices_added);
  EXPECT_EQ(result->edges_added, ref.result.edges_added);
  EXPECT_EQ(result->copy_operations, ref.result.copy_operations);
  EXPECT_EQ(result->orbits_copied, ref.result.orbits_copied);
  EXPECT_EQ(result->orbits_excluded, ref.result.orbits_excluded);
  EXPECT_EQ(result->orbits_satisfied, ref.result.orbits_satisfied);
  EXPECT_EQ(result->released_vertices, ref.result.graph.NumVertices());
  EXPECT_EQ(result->released_edges, ref.result.graph.NumEdges());
  EXPECT_EQ(result->residency.loads, manifest->NumShards());

  // Merge the anonymized shard set and re-emit: byte-identical to the
  // in-memory release file.
  auto merged = MergeShards(out_prefix + ".manifest");
  ASSERT_TRUE(merged.ok()) << merged.status();
  const std::string merged_path = TempPath("sa_merged_" + tag + ".ksymcsr");
  ASSERT_TRUE(WriteCsrFile(*merged, merged_path).ok());
  EXPECT_EQ(ReadFileBytes(merged_path), ref.release_bytes)
      << "merged sharded release differs from in-memory bytes";
}

TEST(ShardedAnonymizeTest, ByteIdenticalAcrossShardsAndThreads) {
  Rng rng(77);
  const Graph graph = ErdosRenyiGnm(90, 260, rng);

  AnonymizationOptions in_memory;
  in_memory.k = 3;
  in_memory.use_total_degree_partition = true;
  const Reference ref = MakeReference(graph, in_memory, "er");

  for (uint32_t shards : {1u, 2u, 4u}) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards
                                      << " threads=" << threads);
      const ExecutionContext context(threads);
      ShardedAnonymizationOptions options;
      options.k = 3;
      options.context = &context;
      CheckShardedMatches(graph, ref, options, shards,
                          "er_s" + std::to_string(shards) + "_t" +
                              std::to_string(threads));
    }
  }
}

TEST(ShardedAnonymizeTest, ByteIdenticalOnBarabasiAlbert) {
  Rng rng(1234);
  const Graph graph = BarabasiAlbert(150, 3, rng);

  AnonymizationOptions in_memory;
  in_memory.k = 2;
  in_memory.use_total_degree_partition = true;
  const Reference ref = MakeReference(graph, in_memory, "ba");

  ShardedAnonymizationOptions options;
  options.k = 2;
  CheckShardedMatches(graph, ref, options, /*shards=*/3, "ba");
}

TEST(ShardedAnonymizeTest, HubExclusionMatchesInMemoryRequirement) {
  Rng rng(9);
  const Graph graph = BarabasiAlbert(120, 2, rng);
  const double fraction = 0.05;

  AnonymizationOptions in_memory;
  in_memory.k = 2;
  in_memory.use_total_degree_partition = true;
  in_memory.requirement = HubExclusionRequirement(
      2, DegreeThresholdForExcludedFraction(graph, fraction));
  const Reference ref = MakeReference(graph, in_memory, "hub");
  ASSERT_GT(ref.result.orbits_excluded, 0u);

  ShardedAnonymizationOptions options;
  options.k = 2;
  options.exclude_hubs_fraction = fraction;
  CheckShardedMatches(graph, ref, options, /*shards=*/2, "hub");
}

TEST(ShardedAnonymizeTest, OutputShardCountOverrideStillMerges) {
  Rng rng(5);
  const Graph graph = ErdosRenyiGnm(60, 150, rng);

  AnonymizationOptions in_memory;
  in_memory.k = 2;
  in_memory.use_total_degree_partition = true;
  const Reference ref = MakeReference(graph, in_memory, "osc");

  ShardedAnonymizationOptions options;
  options.k = 2;
  options.output_shards = 5;
  CheckShardedMatches(graph, ref, options, /*shards=*/2, "osc");
}

TEST(ShardedAnonymizeTest, BinaryReleaseRoundTrips) {
  Rng rng(31);
  const Graph graph = ErdosRenyiGnm(70, 200, rng);

  AnonymizationOptions in_memory;
  in_memory.k = 2;
  in_memory.use_total_degree_partition = true;
  const Reference ref = MakeReference(graph, in_memory, "rt");

  const std::string path = TempPath("rt_release.ksymcsr");
  ASSERT_TRUE(WriteReleaseCsrFile(MakeReleaseTriple(ref.result), path).ok());
  auto release = ReadReleaseCsrFile(path);
  ASSERT_TRUE(release.ok()) << release.status();
  EXPECT_EQ(release->original_vertices, ref.result.original_vertices);
  EXPECT_EQ(release->partition, ref.result.partition);
  EXPECT_EQ(release->partition.cell_of, ref.result.partition.cell_of);
  EXPECT_EQ(release->graph.NumVertices(), ref.result.graph.NumVertices());
  EXPECT_EQ(release->graph.NumEdges(), ref.result.graph.NumEdges());

  // Auto-detection picks the binary reader for .ksymcsr releases.
  auto auto_release = ReadReleaseAuto(path);
  ASSERT_TRUE(auto_release.ok()) << auto_release.status();
  EXPECT_EQ(auto_release->original_vertices, ref.result.original_vertices);
}

}  // namespace
}  // namespace ksym
