// ShardedGraph: a whole graph served out-of-core from vertex-range
// .ksymcsr shards (DESIGN.md §10).
//
// Open() reads the manifest and runs its full validation ladder, checks
// every shard file's header against its manifest row (VerifyShardFiles),
// then maps every shard once with full section-checksum and shard-structure
// validation. The mappings stay open for the graph's lifetime: they are
// clean, file-backed, read-only pages, so the kernel already pages them in
// on touch and reclaims them under memory pressure. Every failure mode
// therefore surfaces from Open(); afterwards the graph is immutable.
//
// Threading: after Open() nothing mutates, so any number of threads may
// read one ShardedGraph concurrently (the daemon's shard-set cache shares
// one instance between requests).

#ifndef KSYM_SHARD_SHARDED_GRAPH_H_
#define KSYM_SHARD_SHARDED_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "shard/manifest.h"

namespace ksym {

struct ShardedGraphOptions {
  /// Ignored: every shard stays mapped for the graph's lifetime and the
  /// kernel manages the residency of the file-backed pages.
  size_t max_resident_bytes = size_t{256} << 20;
};

struct ShardResidencyStats {
  uint64_t loads = 0;      // Shard files mapped (each once, at Open).
  uint64_t hits = 0;       // Always 0: there is no shard cache to hit.
  uint64_t evictions = 0;  // Always 0: no shard is unmapped before close.
  size_t resident_bytes = 0;       // Bytes of all shard mappings.
  size_t peak_resident_bytes = 0;  // == resident_bytes.
};

/// One mapped shard: the mapping plus its range. Accessors take *global*
/// vertex ids within [begin(), end()).
class ResidentShard {
 public:
  ResidentShard(MappedCsrSections sections, VertexId begin, VertexId end)
      : sections_(std::move(sections)), begin_(begin), end_(end) {}

  VertexId begin() const { return begin_; }
  VertexId end() const { return end_; }

  size_t Degree(VertexId v) const {
    KSYM_DCHECK(v >= begin_ && v < end_);
    const size_t local = v - begin_;
    return static_cast<size_t>(sections_.offsets[local + 1] -
                               sections_.offsets[local]);
  }

  /// Sorted *global* neighbor ids of global vertex `v`.
  std::span<const VertexId> Neighbors(VertexId v) const {
    KSYM_DCHECK(v >= begin_ && v < end_);
    const size_t local = v - begin_;
    return sections_.neighbors.subspan(
        static_cast<size_t>(sections_.offsets[local]),
        static_cast<size_t>(sections_.offsets[local + 1] -
                            sections_.offsets[local]));
  }

  /// This shard's slice of the global labels array ([begin, end)).
  std::span<const uint64_t> labels() const { return sections_.labels; }

 private:
  MappedCsrSections sections_;
  VertexId begin_;
  VertexId end_;
};

class ShardedGraph {
 public:
  /// Opens a shard set: parses + validates the manifest, header-verifies
  /// every shard file against its manifest row (the missing-file and
  /// count/checksum-mismatch rungs), then maps and fully validates every
  /// shard. `options` is accepted for source compatibility and ignored.
  static Result<ShardedGraph> Open(const std::string& manifest_path,
                                   const ShardedGraphOptions& options = {});

  ShardedGraph(ShardedGraph&&) = default;
  ShardedGraph& operator=(ShardedGraph&&) = default;
  ShardedGraph(const ShardedGraph&) = delete;
  ShardedGraph& operator=(const ShardedGraph&) = delete;

  size_t NumVertices() const { return manifest_.num_vertices; }
  size_t NumEdges() const { return manifest_.NumEdges(); }
  uint32_t NumShards() const {
    return static_cast<uint32_t>(manifest_.NumShards());
  }
  const ShardManifest& manifest() const { return manifest_; }
  uint32_t ShardOf(VertexId v) const { return manifest_.ShardOf(v); }

  const ResidentShard& Shard(uint32_t s) const {
    KSYM_DCHECK(s < shards_.size());
    return shards_[s];
  }

  /// Graph-compatible point accessors; spans live as long as the graph.
  size_t Degree(VertexId v) const { return Shard(ShardOf(v)).Degree(v); }
  std::span<const VertexId> Neighbors(VertexId v) const {
    return Shard(ShardOf(v)).Neighbors(v);
  }

  const ShardResidencyStats& stats() const { return stats_; }

 private:
  ShardedGraph() = default;

  ShardManifest manifest_;
  std::vector<ResidentShard> shards_;  // One per manifest row, in order.
  ShardResidencyStats stats_;
};

}  // namespace ksym

#endif  // KSYM_SHARD_SHARDED_GRAPH_H_
