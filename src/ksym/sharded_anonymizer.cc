#include "ksym/sharded_anonymizer.h"

#include <algorithm>
#include <vector>

#include "common/str.h"
#include "common/timer.h"
#include "ksym/orbit_copy.h"
#include "shard/partitioner.h"
#include "shard/refine.h"

namespace ksym {

Result<ShardedAnonymizationResult> AnonymizeSharded(
    const ShardedGraph& graph, const ShardedAnonymizationOptions& options,
    const std::string& output_prefix) {
  if (!options.requirement && options.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (!(options.exclude_hubs_fraction >= 0.0 &&
        options.exclude_hubs_fraction < 1.0)) {
    return Status::InvalidArgument(
        StrFormat("exclude_hubs must be a fraction in [0, 1), got %g",
                  options.exclude_hubs_fraction));
  }
  ExecutionContext local_context;
  const ExecutionContext* context =
      options.context != nullptr ? options.context : &local_context;

  const size_t n = graph.NumVertices();
  ShardedAnonymizationResult result;
  result.original_vertices = n;

  // Degree pass, the one whole-graph reduction the hub threshold needs:
  // O(n) in memory.
  SymmetryRequirement requirement = options.requirement;
  if (!requirement && options.exclude_hubs_fraction > 0.0) {
    std::vector<size_t> degrees(n);
    for (VertexId v = 0; v < n; ++v) degrees[v] = graph.Degree(v);
    requirement = HubExclusionRequirement(
        options.k, DegreeThresholdForExcludedFraction(
                       degrees, options.exclude_hubs_fraction));
  }
  if (!requirement) requirement = KSymmetryRequirement(options.k);

  // Initial partition: TDV(G) through the sharded refinement seam.
  VertexPartition initial;
  {
    ScopedPhaseTimer timer(context, &RefinementStats::partition_seconds);
    initial =
        ShardedTotalDegreePartition(graph, context, &result.refinement_trace);
  }

  // Algorithm 1 over the shard set, whole cells: the plan, then the row
  // emitter's two passes over the base shards.
  Timer copy_timer;
  KSYM_ASSIGN_OR_RETURN(
      const CopyPlan plan,
      CopyToRequirement(graph, initial, requirement, {}, result));
  const ReleaseRows<ShardedGraph> rows(graph, plan);
  context->stats().copy_seconds += copy_timer.ElapsedSeconds();

  // Stream the released graph out as balanced vertex ranges. Ranges ascend,
  // so the base shards are read in file order once more.
  const size_t released_n = plan.NumVertices();
  const uint32_t output_shards =
      options.output_shards > 0 ? options.output_shards : graph.NumShards();
  const size_t chunk = (released_n + output_shards - 1) / output_shards;

  ShardSetWriter writer(output_prefix, released_n);
  std::vector<EdgeIndex> local_offsets;
  std::vector<VertexId> range_neighbors;
  std::vector<uint64_t> labels;
  for (size_t begin = 0; begin < released_n; begin += chunk) {
    const size_t end = std::min(released_n, begin + chunk);
    local_offsets.assign(1, 0);
    range_neighbors.clear();
    rows.Append(begin, end, local_offsets, range_neighbors);
    // The release encoding of ReleaseCsrLabels: cell << 1 | is_copy.
    labels.clear();
    plan.ForEachInstance(begin, end, [&labels](VertexId, const Instance& x) {
      labels.push_back(uint64_t{x.cell} << 1 | (x.step > 0 ? 1 : 0));
    });
    KSYM_RETURN_IF_ERROR(writer.AppendShard(
        static_cast<VertexId>(begin), static_cast<VertexId>(end),
        local_offsets, range_neighbors, labels));
  }
  KSYM_ASSIGN_OR_RETURN(result.manifest, writer.Finish());

  result.released_vertices = released_n;
  result.released_edges = rows.NumEdges();
  result.edges_added = rows.NumEdges() - graph.NumEdges();
  result.refinement = context->stats();
  result.residency = graph.stats();
  return result;
}

}  // namespace ksym
