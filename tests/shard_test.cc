// Tests for the shard subsystem (DESIGN.md §10): manifest round trips and
// the negative validation ladder (one rung per corruption mode, mirroring
// csr_io_test's style), partition planning, split -> merge byte identity,
// and ShardedGraph accessor equivalence with the whole graph.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "shard/manifest.h"
#include "shard/partitioner.h"
#include "shard/sharded_graph.h"

namespace ksym {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A small graph with degree skew plus a disjoint tail component, so shard
/// boundaries cut through hubs.
Graph MakeTestGraph() {
  Rng rng(42);
  const Graph dense = ErdosRenyiGnm(60, 180, rng);
  const Graph tail = MakeCycle(9);
  return DisjointUnion(dense, tail);
}

std::vector<uint64_t> MakeLabels(size_t n) {
  std::vector<uint64_t> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = 5000 + 3 * i;
  return labels;
}

/// Splits `graph` into `num_shards` shard files under a fresh prefix and
/// returns the manifest path.
std::string SplitToTemp(const Graph& graph, std::span<const uint64_t> labels,
                        uint32_t num_shards, const std::string& tag) {
  PartitionOptions options;
  options.num_shards = num_shards;
  const std::string prefix = TempPath("shard_" + tag);
  const auto manifest = Partitioner::Split(graph, labels, options, prefix);
  EXPECT_TRUE(manifest.ok()) << manifest.status();
  return prefix + ".manifest";
}

/// Round-trips a deliberately corrupted manifest through ReadFile and
/// expects rejection with a message containing `expect_substring` — the
/// shape of csr_io_test's ExpectBothLoadersReject, one rung per call.
void ExpectManifestRejects(const std::string& text,
                           const std::string& expect_substring,
                           const std::string& tag) {
  SCOPED_TRACE(tag);
  const std::string path = TempPath("manifest_reject_" + tag + ".manifest");
  WriteFileBytes(path, text);
  const auto parsed = ShardManifest::ReadFile(path);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
  EXPECT_NE(parsed.status().message().find(expect_substring),
            std::string::npos)
      << parsed.status().message();
}

// ---------------------------------------------------------------------------
// Manifest serialization and lookup.
// ---------------------------------------------------------------------------

TEST(ShardManifestTest, SerializeParseRoundTrip) {
  ShardManifest manifest;
  manifest.num_vertices = 10;
  manifest.num_neighbor_entries = 24;
  manifest.shards = {{0, 4, 10, 0x0123456789abcdefULL, "g.0.ksymcsr"},
                     {4, 10, 14, 0xfedcba9876543210ULL, "g.1.ksymcsr"}};
  ASSERT_TRUE(manifest.Validate().ok());

  const std::string text = manifest.Serialize();
  const auto parsed = ShardManifest::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->num_vertices, manifest.num_vertices);
  EXPECT_EQ(parsed->num_neighbor_entries, manifest.num_neighbor_entries);
  ASSERT_EQ(parsed->NumShards(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(parsed->shards[i].begin, manifest.shards[i].begin);
    EXPECT_EQ(parsed->shards[i].end, manifest.shards[i].end);
    EXPECT_EQ(parsed->shards[i].neighbor_entries,
              manifest.shards[i].neighbor_entries);
    EXPECT_EQ(parsed->shards[i].header_checksum,
              manifest.shards[i].header_checksum);
    EXPECT_EQ(parsed->shards[i].file, manifest.shards[i].file);
  }
  // Serialization is deterministic: a reparse serializes to the same bytes.
  EXPECT_EQ(parsed->Serialize(), text);
}

TEST(ShardManifestTest, ShardOfCoversEveryVertex) {
  ShardManifest manifest;
  manifest.num_vertices = 9;
  manifest.num_neighbor_entries = 0;
  manifest.shards = {{0, 3, 0, 0, "a"}, {3, 4, 0, 0, "b"}, {4, 9, 0, 0, "c"}};
  for (VertexId v = 0; v < 9; ++v) {
    const uint32_t s = manifest.ShardOf(v);
    EXPECT_LE(manifest.shards[s].begin, v);
    EXPECT_LT(v, manifest.shards[s].end);
  }
  EXPECT_EQ(manifest.ShardOf(0), 0u);
  EXPECT_EQ(manifest.ShardOf(3), 1u);
  EXPECT_EQ(manifest.ShardOf(8), 2u);
}

// ---------------------------------------------------------------------------
// The negative validation ladder: one rung per corruption mode. Rungs that
// live *behind* the body checksum are reached by mutating the struct and
// re-serializing (which recomputes an honest checksum), the same trick
// csr_io_test uses with FixHeaderChecksum.
// ---------------------------------------------------------------------------

ShardManifest MakeValidManifest() {
  ShardManifest manifest;
  manifest.num_vertices = 10;
  manifest.num_neighbor_entries = 24;
  manifest.shards = {{0, 4, 10, 1, "g.0.ksymcsr"},
                     {4, 10, 14, 2, "g.1.ksymcsr"}};
  return manifest;
}

TEST(ShardManifestLadderTest, BadMagic) {
  std::string text = MakeValidManifest().Serialize();
  text[0] = 'X';
  ExpectManifestRejects(text, "bad manifest magic", "bad_magic");
  ExpectManifestRejects("", "bad manifest magic", "empty_file");
}

TEST(ShardManifestLadderTest, BodyChecksumMismatch) {
  // Flip one digit of the vertex count without refreshing the checksum.
  std::string text = MakeValidManifest().Serialize();
  const size_t pos = text.find("vertices 10");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 9] = '2';
  ExpectManifestRejects(text, "manifest checksum mismatch", "body_tamper");
}

TEST(ShardManifestLadderTest, RangeOverlap) {
  ShardManifest manifest = MakeValidManifest();
  manifest.shards[1].begin = 3;  // Inside shard 0's [0, 4).
  ExpectManifestRejects(manifest.Serialize(), "range overlap", "overlap");
}

TEST(ShardManifestLadderTest, RangeGap) {
  ShardManifest manifest = MakeValidManifest();
  manifest.shards[1].begin = 5;  // Vertex 4 is owned by nobody.
  ExpectManifestRejects(manifest.Serialize(), "range gap", "gap");

  // Trailing gap: the ranges stop short of num_vertices.
  ShardManifest trailing = MakeValidManifest();
  trailing.num_vertices = 12;
  ExpectManifestRejects(trailing.Serialize(), "range gap", "trailing_gap");
}

TEST(ShardManifestLadderTest, EntryCountMismatch) {
  ShardManifest manifest = MakeValidManifest();
  manifest.shards[0].neighbor_entries = 11;  // Sum 25 != declared 24.
  ExpectManifestRejects(manifest.Serialize(), "entry count mismatch",
                        "entry_sum");
}

TEST(ShardManifestLadderTest, TruncatedAndTrailing) {
  const std::string text = MakeValidManifest().Serialize();
  ExpectManifestRejects(text.substr(0, text.find("checksum")),
                        "missing checksum line", "truncated");
  ExpectManifestRejects(text + "shard 0 1 0 0000000000000000 x\n",
                        "trailing data", "trailing");
}

// ---------------------------------------------------------------------------
// Single-byte corruption fuzz, in the style of csr_io_test's CSR fuzz: for
// every trial, XOR one byte of a valid serialized manifest and demand the
// parser either rejects with a descriptive (nonempty) message or — when the
// flip happens to be semantically neutral, which the body checksum makes
// effectively impossible — accepts a manifest that serializes back to the
// *original* bytes. Never a crash, never silent acceptance of changed data.
// ---------------------------------------------------------------------------

TEST(ShardManifestFuzzTest, SingleByteCorruptionNeverSilentlyAccepted) {
  const std::string original = MakeValidManifest().Serialize();
  ASSERT_FALSE(original.empty());
  Rng rng(0x5eedf00d);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    std::string corrupted = original;
    const size_t pos = rng.NextBounded(corrupted.size());
    corrupted[pos] = static_cast<char>(
        corrupted[pos] ^ static_cast<char>(1 + rng.NextBounded(255)));

    const std::string path = TempPath("manifest_fuzz.manifest");
    WriteFileBytes(path, corrupted);
    const auto parsed = ShardManifest::ReadFile(path);
    if (parsed.ok()) {
      EXPECT_EQ(parsed->Serialize(), original)
          << "byte " << pos << " accepted with changed semantics";
    } else {
      EXPECT_FALSE(parsed.status().message().empty());
      EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
    }
  }
}

// ---------------------------------------------------------------------------
// The checked-in golden manifest pins the serialization format: the exact
// bytes a writer emits must never drift (old manifests stay readable, new
// ones stay readable by old code).
// ---------------------------------------------------------------------------

ShardManifest MakeGoldenManifest() {
  ShardManifest manifest;
  manifest.num_vertices = 69;
  manifest.num_neighbor_entries = 378;
  manifest.shards = {{0, 23, 140, 0x1f2e3d4c5b6a7988ULL, "golden.0.ksymcsr"},
                     {23, 46, 150, 0x99aabbccddeeff00ULL, "golden.1.ksymcsr"},
                     {46, 69, 88, 0x0123456789abcdefULL, "golden.2.ksymcsr"}};
  return manifest;
}

TEST(ShardManifestGoldenTest, SerializationMatchesCheckedInBytes) {
  const std::string golden_path =
      std::string(KSYM_TESTDATA_DIR) + "/golden.manifest";
  EXPECT_EQ(MakeGoldenManifest().Serialize(), ReadFileBytes(golden_path));
}

TEST(ShardManifestGoldenTest, CheckedInBytesParse) {
  const std::string golden_path =
      std::string(KSYM_TESTDATA_DIR) + "/golden.manifest";
  const auto parsed = ShardManifest::ReadFile(golden_path);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const ShardManifest expected = MakeGoldenManifest();
  EXPECT_EQ(parsed->num_vertices, expected.num_vertices);
  EXPECT_EQ(parsed->num_neighbor_entries, expected.num_neighbor_entries);
  ASSERT_EQ(parsed->NumShards(), expected.NumShards());
  for (size_t i = 0; i < expected.NumShards(); ++i) {
    EXPECT_EQ(parsed->shards[i].begin, expected.shards[i].begin);
    EXPECT_EQ(parsed->shards[i].end, expected.shards[i].end);
    EXPECT_EQ(parsed->shards[i].neighbor_entries,
              expected.shards[i].neighbor_entries);
    EXPECT_EQ(parsed->shards[i].header_checksum,
              expected.shards[i].header_checksum);
    EXPECT_EQ(parsed->shards[i].file, expected.shards[i].file);
  }
  EXPECT_TRUE(IsManifestFile(golden_path));
}

// The file-level rungs: count mismatch, checksum mismatch, and missing
// shard file fire against real shard files written by a split.
TEST(ShardManifestLadderTest, ShardFileCountMismatch) {
  const Graph graph = MakeTestGraph();
  const std::string manifest_path =
      SplitToTemp(graph, {}, 2, "ladder_count");
  auto manifest = ShardManifest::ReadFile(manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status();

  // Shrink shard 1's range by one vertex and grow shard 0's to keep the
  // manifest self-consistent — only the cross-check against the shard
  // file's header can catch it.
  ShardManifest tampered = *manifest;
  tampered.shards[0].end += 1;
  tampered.shards[1].begin += 1;
  const Status status = VerifyShardFiles(tampered, manifest_path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("shard count mismatch"), std::string::npos)
      << status.message();
}

TEST(ShardManifestLadderTest, ShardFileChecksumMismatch) {
  const Graph graph = MakeTestGraph();
  const std::string manifest_path =
      SplitToTemp(graph, {}, 2, "ladder_checksum");
  auto manifest = ShardManifest::ReadFile(manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status();

  ShardManifest tampered = *manifest;
  tampered.shards[1].header_checksum ^= 1;
  const Status status = VerifyShardFiles(tampered, manifest_path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("shard checksum mismatch"),
            std::string::npos)
      << status.message();
}

TEST(ShardManifestLadderTest, MissingShardFile) {
  const Graph graph = MakeTestGraph();
  const std::string manifest_path =
      SplitToTemp(graph, {}, 2, "ladder_missing");
  const auto manifest = ShardManifest::ReadFile(manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  ASSERT_EQ(std::remove(
                ResolveShardPath(manifest_path, manifest->shards[1]).c_str()),
            0);

  const Status status = VerifyShardFiles(*manifest, manifest_path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("missing shard file"), std::string::npos)
      << status.message();

  // ShardedGraph::Open runs the same rung before any data is mapped.
  const auto opened = ShardedGraph::Open(manifest_path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("missing shard file"),
            std::string::npos);
}

TEST(ShardManifestLadderTest, CorruptShardBodyRejectedOnLoad) {
  const Graph graph = MakeTestGraph();
  const std::string manifest_path = SplitToTemp(graph, {}, 2, "ladder_body");
  const auto manifest = ShardManifest::ReadFile(manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status();

  // Flip a byte in shard 1's body: its header, and so VerifyShardFiles,
  // stays intact.
  const std::string shard_path =
      ResolveShardPath(manifest_path, manifest->shards[1]);
  std::string bytes = ReadFileBytes(shard_path);
  ASSERT_GT(bytes.size(), 80u);
  bytes[bytes.size() - 5] ^= 0x40;
  WriteFileBytes(shard_path, bytes);
  EXPECT_TRUE(VerifyShardFiles(*manifest, manifest_path).ok());

  // Open maps every shard with full validation, so the corruption is a
  // section-checksum rejection naming the shard, before any data is read.
  const auto opened = ShardedGraph::Open(manifest_path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIoError);
  EXPECT_NE(opened.status().message().find("checksum mismatch"),
            std::string::npos)
      << opened.status();
  EXPECT_NE(opened.status().message().find(shard_path), std::string::npos)
      << opened.status();
}

// ---------------------------------------------------------------------------
// Partition planning.
// ---------------------------------------------------------------------------

TEST(PartitionerTest, BalancedPlanUsesCeilChunks) {
  const Graph graph = MakeCycle(10);
  PartitionOptions options;
  options.num_shards = 4;
  const auto plan = Partitioner::Plan(graph, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::vector<std::pair<VertexId, VertexId>> expected = {
      {0, 3}, {3, 6}, {6, 9}, {9, 10}};
  EXPECT_EQ(*plan, expected);
}

TEST(PartitionerTest, BalancedPlanDropsEmptyTrailingRanges) {
  const Graph graph = MakeCycle(3);
  PartitionOptions options;
  options.num_shards = 8;
  const auto plan = Partitioner::Plan(graph, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->size(), 3u);
  for (size_t i = 0; i < plan->size(); ++i) {
    EXPECT_EQ((*plan)[i].first, i);
    EXPECT_EQ((*plan)[i].second, i + 1);
  }
}

TEST(PartitionerTest, EntryBudgetPlanRespectsBudgetExceptLoneHubs) {
  // Star: the hub has degree 19, every leaf degree 1. A budget of 8 cannot
  // hold the hub, which must land in a shard of its own.
  const Graph graph = MakeStar(20);
  PartitionOptions options;
  options.max_entries = 8;
  const auto plan = Partitioner::Plan(graph, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_GT(plan->size(), 1u);
  EXPECT_EQ((*plan)[0], (std::pair<VertexId, VertexId>{0, 1}));  // Lone hub.
  VertexId cursor = 0;
  for (const auto& [begin, end] : *plan) {
    EXPECT_EQ(begin, cursor);
    EXPECT_LT(begin, end);
    cursor = end;
    const uint64_t entries = graph.RawOffsets()[end] - graph.RawOffsets()[begin];
    if (end - begin > 1) EXPECT_LE(entries, options.max_entries);
  }
  EXPECT_EQ(cursor, graph.NumVertices());
}

TEST(PartitionerTest, RejectsBadOptions) {
  const Graph graph = MakeCycle(5);
  EXPECT_FALSE(Partitioner::Plan(graph, {}).ok());
  PartitionOptions both;
  both.num_shards = 2;
  both.max_entries = 10;
  EXPECT_FALSE(Partitioner::Plan(graph, both).ok());
  PartitionOptions one;
  one.num_shards = 1;
  EXPECT_FALSE(Partitioner::Plan(Graph(), one).ok());
}

// ---------------------------------------------------------------------------
// Split -> merge byte identity.
// ---------------------------------------------------------------------------

TEST(PartitionerTest, SplitMergeByteIdenticalAcrossShardCounts) {
  const Graph graph = MakeTestGraph();
  const std::vector<uint64_t> labels = MakeLabels(graph.NumVertices());

  const std::string original_path = TempPath("shard_original.ksymcsr");
  ASSERT_TRUE(WriteCsrFile(graph, labels, original_path).ok());
  const std::string original_bytes = ReadFileBytes(original_path);

  for (const uint32_t num_shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(num_shards);
    const std::string manifest_path = SplitToTemp(
        graph, labels, num_shards, "merge_" + std::to_string(num_shards));

    const auto merged = MergeShards(manifest_path);
    ASSERT_TRUE(merged.ok()) << merged.status();
    EXPECT_TRUE(merged->graph == graph);
    EXPECT_EQ(merged->labels, labels);

    const std::string merged_path =
        TempPath("shard_merged_" + std::to_string(num_shards) + ".ksymcsr");
    ASSERT_TRUE(WriteCsrFile(*merged, merged_path).ok());
    EXPECT_EQ(ReadFileBytes(merged_path), original_bytes);
  }
}

TEST(PartitionerTest, SplitMergeByteIdenticalInEntryBudgetMode) {
  const Graph graph = MakeTestGraph();
  const std::string original_path = TempPath("shard_budget_orig.ksymcsr");
  ASSERT_TRUE(WriteCsrFile(graph, {}, original_path).ok());

  PartitionOptions options;
  options.max_entries = graph.RawNeighbors().size() / 5;
  const std::string prefix = TempPath("shard_budget");
  const auto manifest = Partitioner::Split(graph, {}, options, prefix);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  ASSERT_GT(manifest->NumShards(), 1u);

  const auto merged = MergeShards(prefix + ".manifest");
  ASSERT_TRUE(merged.ok()) << merged.status();
  const std::string merged_path = TempPath("shard_budget_merged.ksymcsr");
  ASSERT_TRUE(WriteCsrFile(*merged, merged_path).ok());
  EXPECT_EQ(ReadFileBytes(merged_path), ReadFileBytes(original_path));
}

// ---------------------------------------------------------------------------
// ShardedGraph: accessor equivalence and mapping accounting.
// ---------------------------------------------------------------------------

TEST(ShardedGraphTest, AccessorsMatchGraph) {
  const Graph graph = MakeTestGraph();
  const std::vector<uint64_t> labels = MakeLabels(graph.NumVertices());
  const std::string manifest_path = SplitToTemp(graph, labels, 4, "access");

  const auto sharded = ShardedGraph::Open(manifest_path);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  EXPECT_EQ(sharded->NumVertices(), graph.NumVertices());
  EXPECT_EQ(sharded->NumEdges(), graph.NumEdges());
  EXPECT_EQ(sharded->NumShards(), 4u);

  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    ASSERT_EQ(sharded->Degree(v), graph.Degree(v)) << v;
    const auto expected = graph.Neighbors(v);
    const auto actual = sharded->Neighbors(v);
    ASSERT_TRUE(std::equal(actual.begin(), actual.end(), expected.begin(),
                           expected.end()))
        << v;
  }

  // Every shard was mapped once, at Open, and stays mapped.
  size_t file_bytes = 0;
  for (uint32_t s = 0; s < sharded->NumShards(); ++s) {
    const ResidentShard& shard = sharded->Shard(s);
    EXPECT_EQ(shard.begin(), sharded->manifest().shards[s].begin);
    EXPECT_EQ(shard.end(), sharded->manifest().shards[s].end);
    file_bytes += ReadFileBytes(ResolveShardPath(
                                    manifest_path,
                                    sharded->manifest().shards[s]))
                      .size();
    // Labels ride along per shard.
    const auto slice = shard.labels();
    ASSERT_EQ(slice.size(), shard.end() - shard.begin());
    for (size_t i = 0; i < slice.size(); ++i) {
      EXPECT_EQ(slice[i], labels[shard.begin() + i]);
    }
  }
  const ShardResidencyStats& stats = sharded->stats();
  EXPECT_EQ(stats.loads, 4u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_bytes, file_bytes);
  EXPECT_EQ(stats.peak_resident_bytes, file_bytes);
}

}  // namespace
}  // namespace ksym
