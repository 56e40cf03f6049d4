// Splitting a Graph into vertex-range .ksymcsr shards, and merging them
// back (DESIGN.md §10).
//
// A split is lossless by construction: shard i holds the offsets slice
// [begin, end] rebased to 0, the matching slice of the global neighbors
// array with ids kept global, and the labels slice — so appending the
// shards' rows and labels in range order yields the original arrays
// exactly, and `split → merge → WriteCsrFile` reproduces the original
// .ksymcsr byte for byte (CI enforces this).

#ifndef KSYM_SHARD_PARTITIONER_H_
#define KSYM_SHARD_PARTITIONER_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "shard/manifest.h"

namespace ksym {

struct PartitionOptions {
  /// Split into this many balanced vertex ranges (ceil(n / num_shards)
  /// vertices each, the same chunking ParallelFor uses; trailing ranges
  /// that would be empty are dropped). Exactly one of num_shards /
  /// max_entries must be nonzero.
  uint32_t num_shards = 0;

  /// Or: greedy ranges each holding at most this many neighbor entries —
  /// the edge-budget mode for degree-skewed graphs. A range always takes
  /// at least one vertex, so a single hub beyond the budget still fits
  /// (in a shard of its own) rather than failing the split.
  uint64_t max_entries = 0;
};

/// Incremental writer for a shard set: append vertex-range shards in
/// ascending order, then Finish() to validate and write the manifest.
/// Partitioner::Split splits a resident graph through this; the sharded
/// anonymizer streams its output through it one range at a time, so the
/// whole released graph is never held in memory.
class ShardSetWriter {
 public:
  /// Shard files will be `<prefix>.<i>.ksymcsr`, the manifest
  /// `<prefix>.manifest`; `num_vertices` is the global vertex count the
  /// appended ranges must cover.
  ShardSetWriter(std::string prefix, uint64_t num_vertices);

  /// Writes the next shard: the range [begin, end), its offsets slice
  /// rebased to 0 (end - begin + 1 entries), the matching neighbors slice
  /// with *global* ids, and the labels slice (end - begin entries).
  Status AppendShard(VertexId begin, VertexId end,
                     std::span<const EdgeIndex> local_offsets,
                     std::span<const VertexId> neighbors,
                     std::span<const uint64_t> labels);

  /// Validates the accumulated manifest (coverage, counts), writes it, and
  /// returns it. Call exactly once, after the last AppendShard.
  Result<ShardManifest> Finish();

 private:
  std::string prefix_;
  ShardManifest manifest_;
};

class Partitioner {
 public:
  /// Plans the contiguous vertex ranges a split would produce, without
  /// writing anything. Every range is non-empty; ranges cover [0, n) in
  /// order. Fails on an empty graph or contradictory options.
  static Result<std::vector<std::pair<VertexId, VertexId>>> Plan(
      const Graph& graph, const PartitionOptions& options);

  /// Splits `graph` into shard files `<prefix>.<i>.ksymcsr` plus the
  /// manifest `<prefix>.manifest`, and returns the manifest. `labels` must
  /// be empty (identity labeling) or size n; shard i carries its slice.
  static Result<ShardManifest> Split(const Graph& graph,
                                     std::span<const uint64_t> labels,
                                     const PartitionOptions& options,
                                     const std::string& prefix);
};

/// Reassembles the whole graph (and labels) from a manifest. Opens it
/// through ShardedGraph::Open, so the manifest ladder, every shard's
/// checksums and the slice structure are validated on the way. The result
/// is bit-identical to the graph that was split.
Result<LoadedGraph> MergeShards(const std::string& manifest_path);

}  // namespace ksym

#endif  // KSYM_SHARD_PARTITIONER_H_
