#include "shard/sharded_graph.h"

#include <utility>

#include "common/str.h"

namespace ksym {

Result<ShardedGraph> ShardedGraph::Open(const std::string& manifest_path,
                                        const ShardedGraphOptions&) {
  KSYM_ASSIGN_OR_RETURN(ShardManifest manifest,
                        ShardManifest::ReadFile(manifest_path));
  KSYM_RETURN_IF_ERROR(VerifyShardFiles(manifest, manifest_path));
  ShardedGraph graph;
  graph.shards_.reserve(manifest.NumShards());
  for (const ShardInfo& info : manifest.shards) {
    const std::string path = ResolveShardPath(manifest_path, info);
    CsrReadOptions read_options;
    read_options.shard_global_vertices = manifest.num_vertices;
    read_options.shard_base = info.begin;
    Result<MappedCsrSections> mapped = MapCsrSections(path, read_options);
    if (!mapped.ok()) {
      return Status(mapped.status().code(),
                    StrFormat("shard %s: %s", path.c_str(),
                              mapped.status().message().c_str()));
    }
    MappedCsrSections sections = std::move(mapped).value();
    if (sections.labels.size() != info.NumVertices() ||
        sections.neighbors.size() != info.neighbor_entries) {
      // VerifyShardFiles checked this header a moment ago, so the file
      // was replaced in between.
      return Status::IoError(StrFormat(
          "shard count mismatch: %s changed on disk during open",
          path.c_str()));
    }
    graph.stats_.resident_bytes += sections.mapping.size();
    graph.shards_.emplace_back(std::move(sections), info.begin, info.end);
  }
  graph.stats_.loads = graph.shards_.size();
  graph.stats_.peak_resident_bytes = graph.stats_.resident_bytes;
  graph.manifest_ = std::move(manifest);
  return graph;
}

}  // namespace ksym
