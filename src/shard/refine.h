// Out-of-core equitable refinement: the ShardedGraph implementation of the
// refiner's neighbor-access seam, plus sharded drop-in replacements for
// EquitablePartition / ComputeTotalDegreePartition (DESIGN.md §11).
//
// The refiner keeps all O(n) vertex state (counts, partition arrays,
// worklists) in memory and reaches the O(2|E|) edge arrays only through
// NeighborSource::CountSplitter. ShardedNeighborSource serves that pass
// from the shard mappings: the same loop as CsrNeighborSource, with each
// neighbor row found in its owning shard.
//
// Bit-identity argument (the §11 determinism argument in brief): the source
// visits the splitter's members in the order given and each member's
// sorted neighbor row, exactly like the in-memory source, so it performs
// the same increments in the same order and builds the same touched list.
// Every split and every trace hash fold lives above the seam, untouched.
// Hence the final partition and the refinement trace hash are
// bit-identical to the in-memory run at any shard count — pinned by
// sharded_refinement_test across 1/2/4 shards.

#ifndef KSYM_SHARD_REFINE_H_
#define KSYM_SHARD_REFINE_H_

#include <cstdint>
#include <vector>

#include "aut/neighbor_source.h"
#include "aut/orbits.h"
#include "aut/refinement.h"
#include "shard/sharded_graph.h"

namespace ksym {

class ShardedNeighborSource final : public NeighborSource {
 public:
  explicit ShardedNeighborSource(const ShardedGraph& graph) : graph_(graph) {}

  size_t NumVertices() const override { return graph_.NumVertices(); }

  void CountSplitter(std::span<const VertexId> splitter,
                     std::span<uint32_t> count,
                     std::vector<VertexId>& touched) override;

 private:
  const ShardedGraph& graph_;
};

/// EquitablePartition over a shard set: identical cells (and trace hash,
/// via options.trace_hash) to EquitablePartition on the merged graph.
std::vector<std::vector<VertexId>> ShardedEquitablePartition(
    const ShardedGraph& graph, const RefinementOptions& options);

/// ComputeTotalDegreePartition over a shard set: TDV(G) without ever
/// materializing G. == ComputeTotalDegreePartition on the merged graph.
VertexPartition ShardedTotalDegreePartition(const ShardedGraph& graph,
                                            const ExecutionContext* context,
                                            uint64_t* trace_hash = nullptr);

}  // namespace ksym

#endif  // KSYM_SHARD_REFINE_H_
