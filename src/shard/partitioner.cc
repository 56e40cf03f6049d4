#include "shard/partitioner.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <numeric>

#include "common/check.h"
#include "common/str.h"
#include "shard/sharded_graph.h"

namespace ksym {

namespace {

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

ShardSetWriter::ShardSetWriter(std::string prefix, uint64_t num_vertices)
    : prefix_(std::move(prefix)) {
  manifest_.num_vertices = num_vertices;
}

Status ShardSetWriter::AppendShard(VertexId begin, VertexId end,
                                   std::span<const EdgeIndex> local_offsets,
                                   std::span<const VertexId> neighbors,
                                   std::span<const uint64_t> labels) {
  const size_t index = manifest_.shards.size();
  const std::string file =
      StrFormat("%s.%zu.ksymcsr", prefix_.c_str(), index);
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError(StrFormat("cannot open %s for writing: %s",
                                     file.c_str(), std::strerror(errno)));
  }
  KSYM_RETURN_IF_ERROR(WriteCsrSections(local_offsets, neighbors, labels, out));
  out.close();
  // Read the header back for the checksum the manifest pins the file to.
  KSYM_ASSIGN_OR_RETURN(const CsrFileInfo info,
                        ReadCsrFileInfo(file, /*allow_odd_entries=*/true));
  ShardInfo s;
  s.begin = begin;
  s.end = end;
  s.neighbor_entries = neighbors.size();
  s.header_checksum = info.header_checksum;
  // Stored relative to the manifest's directory so the set moves as one.
  s.file = Basename(file);
  manifest_.shards.push_back(std::move(s));
  manifest_.num_neighbor_entries += neighbors.size();
  return Status::Ok();
}

Result<ShardManifest> ShardSetWriter::Finish() {
  KSYM_RETURN_IF_ERROR(manifest_.Validate());
  KSYM_RETURN_IF_ERROR(manifest_.WriteFile(prefix_ + ".manifest"));
  return manifest_;
}

Result<std::vector<std::pair<VertexId, VertexId>>> Partitioner::Plan(
    const Graph& graph, const PartitionOptions& options) {
  const size_t n = graph.NumVertices();
  if (n == 0) {
    return Status::InvalidArgument("cannot shard an empty graph");
  }
  if ((options.num_shards == 0) == (options.max_entries == 0)) {
    return Status::InvalidArgument(
        "exactly one of num_shards / max_entries must be set");
  }
  std::vector<std::pair<VertexId, VertexId>> ranges;
  if (options.num_shards > 0) {
    // Same ceil-chunking ParallelFor uses, so "4 shards" and "4 threads"
    // cut the vertex space identically.
    const size_t chunk = (n + options.num_shards - 1) / options.num_shards;
    for (size_t begin = 0; begin < n; begin += chunk) {
      const size_t end = std::min(n, begin + chunk);
      ranges.emplace_back(static_cast<VertexId>(begin),
                          static_cast<VertexId>(end));
    }
  } else {
    const std::span<const EdgeIndex> offsets = graph.RawOffsets();
    size_t begin = 0;
    while (begin < n) {
      size_t end = begin + 1;  // A shard always takes at least one vertex.
      while (end < n &&
             offsets[end + 1] - offsets[begin] <= options.max_entries) {
        ++end;
      }
      ranges.emplace_back(static_cast<VertexId>(begin),
                          static_cast<VertexId>(end));
      begin = end;
    }
  }
  return ranges;
}

Result<ShardManifest> Partitioner::Split(const Graph& graph,
                                         std::span<const uint64_t> labels,
                                         const PartitionOptions& options,
                                         const std::string& prefix) {
  const size_t n = graph.NumVertices();
  if (!labels.empty() && labels.size() != n) {
    return Status::InvalidArgument(
        StrFormat("labels size %zu does not match %zu vertices",
                  labels.size(), n));
  }
  std::vector<uint64_t> identity;
  if (labels.empty()) {
    identity.resize(n);
    std::iota(identity.begin(), identity.end(), uint64_t{0});
    labels = identity;
  }
  KSYM_ASSIGN_OR_RETURN(const auto ranges, Plan(graph, options));
  const std::span<const EdgeIndex> offsets = graph.RawOffsets();
  const std::span<const VertexId> neighbors = graph.RawNeighbors();

  ShardSetWriter writer(prefix, n);
  std::vector<EdgeIndex> local_offsets;
  for (const auto& [begin, end] : ranges) {
    const EdgeIndex base = offsets[begin];
    local_offsets.assign(offsets.begin() + begin, offsets.begin() + end + 1);
    for (EdgeIndex& o : local_offsets) o -= base;
    KSYM_RETURN_IF_ERROR(
        writer.AppendShard(begin, end, local_offsets,
                           neighbors.subspan(base, offsets[end] - base),
                           labels.subspan(begin, end - begin)));
  }
  return writer.Finish();
}

Result<LoadedGraph> MergeShards(const std::string& manifest_path) {
  KSYM_ASSIGN_OR_RETURN(const ShardedGraph sharded,
                        ShardedGraph::Open(manifest_path));
  const size_t n = sharded.NumVertices();
  std::vector<EdgeIndex> offsets;
  offsets.reserve(n + 1);
  offsets.push_back(0);
  std::vector<VertexId> neighbors;
  neighbors.reserve(
      static_cast<size_t>(sharded.manifest().num_neighbor_entries));
  LoadedGraph out;
  out.labels.reserve(n);

  for (uint32_t s = 0; s < sharded.NumShards(); ++s) {
    const ResidentShard& shard = sharded.Shard(s);
    for (VertexId v = shard.begin(); v < shard.end(); ++v) {
      const std::span<const VertexId> row = shard.Neighbors(v);
      neighbors.insert(neighbors.end(), row.begin(), row.end());
      offsets.push_back(neighbors.size());
    }
    out.labels.insert(out.labels.end(), shard.labels().begin(),
                      shard.labels().end());
  }
  out.graph = Graph::FromCsr(std::move(offsets), std::move(neighbors));
  return out;
}

}  // namespace ksym
