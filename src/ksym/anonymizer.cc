#include "ksym/anonymizer.h"

#include <algorithm>
#include <limits>

namespace ksym {

SymmetryRequirement KSymmetryRequirement(uint32_t k) {
  return [k](const std::vector<VertexId>&, size_t) { return k; };
}

SymmetryRequirement HubExclusionRequirement(uint32_t k,
                                            size_t degree_threshold) {
  return [k, degree_threshold](const std::vector<VertexId>&, size_t degree) {
    return degree > degree_threshold ? 1u : k;
  };
}

size_t DegreeThresholdForExcludedFraction(const Graph& graph,
                                          double fraction) {
  return DegreeThresholdForExcludedFraction(
      std::span<const size_t>(graph.Degrees()), fraction);
}

size_t DegreeThresholdForExcludedFraction(std::span<const size_t> degrees,
                                          double fraction) {
  KSYM_DCHECK(fraction >= 0.0 && fraction < 1.0);
  if (fraction <= 0.0 || degrees.empty()) {
    return std::numeric_limits<size_t>::max();
  }
  std::vector<size_t> sorted(degrees.begin(), degrees.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  size_t num_excluded =
      static_cast<size_t>(fraction * static_cast<double>(degrees.size()));
  num_excluded = std::min(num_excluded, sorted.size());
  if (num_excluded == 0) return std::numeric_limits<size_t>::max();
  // Exclude exactly the vertices with degree strictly above the cutoff.
  return sorted[num_excluded - 1] == 0 ? 0 : sorted[num_excluded - 1] - 1;
}

Result<AnonymizationResult> AnonymizeInMemory(
    const Graph& graph, const VertexPartition* initial,
    const AnonymizationOptions& options, const CopyUnitChooser& unit_of) {
  if (!options.requirement && options.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (initial != nullptr && initial->cell_of.size() != graph.NumVertices()) {
    return Status::InvalidArgument(
        "initial partition does not match the graph");
  }
  const SymmetryRequirement requirement =
      options.requirement ? options.requirement
                          : KSymmetryRequirement(options.k);

  // With no caller context, a local one still collects this call's stats.
  ExecutionContext local_context;
  const ExecutionContext* context =
      options.context != nullptr ? options.context : &local_context;

  AnonymizationResult result;
  result.original_vertices = graph.NumVertices();
  VertexPartition computed;
  if (initial == nullptr) {
    ScopedPhaseTimer timer(context, &RefinementStats::partition_seconds);
    computed = options.use_total_degree_partition
                   ? ComputeTotalDegreePartition(graph, context,
                                                 &result.refinement_trace)
                   : ComputeAutomorphismPartition(graph, {}, context);
    initial = &computed;
  }

  {
    ScopedPhaseTimer copy_timer(context, &RefinementStats::copy_seconds);
    KSYM_ASSIGN_OR_RETURN(
        const CopyPlan plan,
        CopyToRequirement(graph, *initial, requirement, unit_of, result));
    KSYM_ASSIGN_OR_RETURN(result.graph, ReleasedGraph(graph, plan));
    result.edges_added = result.graph.NumEdges() - graph.NumEdges();
    result.partition = plan.ReleasedPartition();
  }
  result.refinement = context->stats();
  return result;
}

Result<AnonymizationResult> Anonymize(const Graph& graph,
                                      const AnonymizationOptions& options) {
  return AnonymizeInMemory(graph, nullptr, options, {});
}

Result<AnonymizationResult> AnonymizeWithPartition(
    const Graph& graph, const VertexPartition& initial,
    const AnonymizationOptions& options) {
  return AnonymizeInMemory(graph, &initial, options, {});
}

}  // namespace ksym
