#include "shard/refine.h"

#include "common/check.h"

namespace ksym {

ShardedNeighborSource::ShardedNeighborSource(ShardedGraph& graph)
    : graph_(graph), groups_(graph.NumShards()) {}

void ShardedNeighborSource::GroupByShard(std::span<const VertexId> splitter) {
  for (std::vector<VertexId>& group : groups_) group.clear();
  for (VertexId u : splitter) groups_[graph_.ShardOf(u)].push_back(u);
}

void ShardedNeighborSource::CountSplitter(std::span<const VertexId> splitter,
                                          std::span<uint32_t> count,
                                          std::vector<VertexId>& touched) {
  GroupByShard(splitter);
  for (uint32_t s = 0; s < groups_.size(); ++s) {
    if (groups_[s].empty()) continue;
    const Result<ShardView> view = graph_.Shard(s);
    KSYM_CHECK(view.ok());
    for (VertexId u : groups_[s]) {
      for (VertexId v : view->Neighbors(u)) {
        if (count[v]++ == 0) touched.push_back(v);
      }
    }
  }
}

std::vector<std::vector<VertexId>> ShardedEquitablePartition(
    ShardedGraph& graph, const RefinementOptions& options) {
  ShardedNeighborSource source(graph);
  return EquitablePartition(source, options);
}

VertexPartition ShardedTotalDegreePartition(ShardedGraph& graph,
                                            const ExecutionContext* context,
                                            uint64_t* trace_hash) {
  return VertexPartition::FromCells(
      graph.NumVertices(),
      ShardedEquitablePartition(graph,
                                RefinementOptions{.context = context,
                                                  .trace_hash = trace_hash}));
}

}  // namespace ksym
