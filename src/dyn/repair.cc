#include "dyn/repair.h"

namespace ksym {
namespace dyn {

uint64_t GraphContentChecksum(const Graph& graph) {
  uint64_t h = HashCombine(0x6B73796D64796E00ull, graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    const auto nv = graph.Neighbors(v);
    h = HashCombine(h, nv.size());
    for (VertexId w : nv) h = HashCombine(h, w);
  }
  return h;
}

uint64_t PartitionChecksum(const VertexPartition& partition) {
  uint64_t h = HashCombine(0x6B73796D70617274ull, partition.cells.size());
  for (const std::vector<VertexId>& cell : partition.cells) {
    h = HashCombine(h, cell.size());
    for (VertexId v : cell) h = HashCombine(h, v);
  }
  return h;
}

}  // namespace dyn
}  // namespace ksym
