#include "dyn/repair.h"

#include "dyn/delta_graph.h"

namespace ksym {
namespace dyn {

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
