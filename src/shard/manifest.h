// Shard manifests: the checksummed sidecar that makes a set of .ksymcsr
// vertex-range shard files one logical graph (DESIGN.md §10).
//
// A sharded graph is a partition of [0, n) into contiguous vertex ranges.
// Shard s owns the CSR rows of its range: an offsets slice rebased to 0 and
// the matching slice of the global neighbors array, with neighbor ids kept
// *global*. Each shard is a standalone .ksymcsr file (written by
// WriteCsrSections, loaded by MapCsrSections in shard mode); the manifest
// records the ranges, per-shard neighbor-entry counts, each shard file's
// own header checksum, and a checksum over the manifest body itself, so
// every cross-file inconsistency — a tampered manifest, a swapped or stale
// shard file, a missing file — is caught before any shard byte is trusted.
//
// The text format is deliberately line-oriented and diff-friendly:
//
//   KSYMSHARDS 1
//   vertices <n>
//   neighbor_entries <2|E|>
//   shards <s>
//   shard <begin> <end> <entries> <header_checksum hex16> <file>
//   ...           (one line per shard, ranges ascending)
//   checksum <hex16>
//
// The final checksum line is CsrChecksum over every preceding byte of the
// file. Shard file names are stored relative to the manifest's directory
// (ResolveShardPath joins them), so a shard set can be moved as a unit.

#ifndef KSYM_SHARD_MANIFEST_H_
#define KSYM_SHARD_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace ksym {

/// One shard's row in the manifest.
struct ShardInfo {
  VertexId begin = 0;            // First global vertex of the range.
  VertexId end = 0;              // One past the last: range is [begin, end).
  uint64_t neighbor_entries = 0; // Entries in this shard's neighbors slice.
  uint64_t header_checksum = 0;  // The shard .ksymcsr file's header checksum.
  std::string file;              // Path relative to the manifest's directory.

  size_t NumVertices() const { return end - begin; }
};

struct ShardManifest {
  uint64_t num_vertices = 0;         // Global n.
  uint64_t num_neighbor_entries = 0; // Global 2|E|.
  std::vector<ShardInfo> shards;     // Ascending, gap-free, covering [0, n).

  size_t NumShards() const { return shards.size(); }
  size_t NumEdges() const { return num_neighbor_entries / 2; }

  /// Index of the shard owning global vertex `v` (binary search over the
  /// ranges; requires v < num_vertices and a Validate()-clean manifest).
  uint32_t ShardOf(VertexId v) const;

  /// Cross-field validation: at least one shard, every range non-empty, the
  /// ranges ascending / gap-free / overlap-free and covering exactly
  /// [0, num_vertices), per-shard entry counts summing to
  /// num_neighbor_entries. File-level rungs (missing shard file, shard
  /// header disagreeing with the manifest row) are checked when the shard
  /// set is opened — see ShardedGraph::Open and VerifyShardFiles.
  Status Validate() const;

  /// Deterministic text serialization ending in the body-checksum line.
  /// Serializes whatever is in the struct — run Validate() first if the
  /// fields are untrusted.
  std::string Serialize() const;

  /// Parses and fully validates manifest text: magic, field syntax, body
  /// checksum, then Validate(). Every corruption mode yields a descriptive
  /// error naming the offending line or rung.
  static Result<ShardManifest> Parse(std::string_view text);

  static Result<ShardManifest> ReadFile(const std::string& path);
  Status WriteFile(const std::string& path) const;
};

/// True iff the file starts with the KSYMSHARDS magic — how the tools
/// auto-detect a manifest input. Missing/short files are simply "not a
/// manifest" (the subsequent real open reports them).
bool IsManifestFile(const std::string& path);

/// Joins a shard's relative file name onto its manifest's directory.
std::string ResolveShardPath(const std::string& manifest_path,
                             const ShardInfo& shard);

/// File-level verification of every shard named by a manifest at
/// `manifest_path`: each shard file must exist, pass header validation, and
/// agree with its manifest row on vertex count, entry count, and header
/// checksum. O(1) per shard (headers only); ShardedGraph::Open follows it
/// with full MapCsrSections validation of every shard.
Status VerifyShardFiles(const ShardManifest& manifest,
                        const std::string& manifest_path);

}  // namespace ksym

#endif  // KSYM_SHARD_MANIFEST_H_
