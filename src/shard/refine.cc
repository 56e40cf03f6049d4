#include "shard/refine.h"

namespace ksym {

void ShardedNeighborSource::CountSplitter(std::span<const VertexId> splitter,
                                          std::span<uint32_t> count,
                                          std::vector<VertexId>& touched) {
  for (VertexId u : splitter) {
    for (VertexId v : graph_.Neighbors(u)) {
      if (count[v]++ == 0) touched.push_back(v);
    }
  }
}

std::vector<std::vector<VertexId>> ShardedEquitablePartition(
    const ShardedGraph& graph, const RefinementOptions& options) {
  ShardedNeighborSource source(graph);
  return EquitablePartition(source, options);
}

VertexPartition ShardedTotalDegreePartition(const ShardedGraph& graph,
                                            const ExecutionContext* context,
                                            uint64_t* trace_hash) {
  return VertexPartition::FromCells(
      graph.NumVertices(),
      ShardedEquitablePartition(graph,
                                RefinementOptions{.context = context,
                                                  .trace_hash = trace_hash}));
}

}  // namespace ksym
