#include "ksym/sampling.h"

#include <algorithm>

#include "graph/algorithms.h"
#include "ksym/anonymizer.h"
#include "ksym/backbone.h"

namespace ksym {

std::vector<double> InverseDegreeCellWeights(
    const Graph& graph, const VertexPartition& partition) {
  std::vector<double> weights(partition.cells.size(), 0.0);
  for (size_t i = 0; i < partition.cells.size(); ++i) {
    const size_t degree = graph.Degree(partition.cells[i].front());
    weights[i] = 1.0 / static_cast<double>(std::max<size_t>(degree, 1));
  }
  return weights;
}

std::vector<double> SizeAwareCellWeights(const Graph& graph,
                                         const VertexPartition& partition) {
  std::vector<double> weights = InverseDegreeCellWeights(graph, partition);
  for (size_t i = 0; i < partition.cells.size(); ++i) {
    const double size = static_cast<double>(partition.cells[i].size());
    weights[i] *= size * size;
  }
  return weights;
}

Result<Graph> ExactBackboneSample(const Graph& graph,
                                  const VertexPartition& partition,
                                  size_t target_vertices, Rng& rng,
                                  const std::vector<double>* weights,
                                  SampleStats* stats) {
  if (partition.cell_of.size() != graph.NumVertices()) {
    return Status::InvalidArgument("partition does not match graph");
  }
  std::vector<double> default_weights;
  if (weights == nullptr) {
    default_weights = SizeAwareCellWeights(graph, partition);
    weights = &default_weights;
  }
  if (weights->size() != partition.cells.size()) {
    return Status::InvalidArgument("one weight per cell required");
  }

  // Backbone of the released pair; backbone cell b corresponds to released
  // cell via the representative's cell in the input partition.
  const BackboneResult backbone = ComputeBackbone(graph, partition, nullptr);
  const size_t num_backbone_cells = backbone.partition.cells.size();

  // Map each backbone cell to its released cell (for sizes and weights).
  std::vector<uint32_t> released_cell(num_backbone_cells);
  for (uint32_t b = 0; b < num_backbone_cells; ++b) {
    const VertexId rep_in_backbone = backbone.partition.cells[b].front();
    released_cell[b] = partition.cell_of[backbone.kept[rep_in_backbone]];
  }

  // Distribute the vertex budget: CPN[b] copy operations per backbone cell,
  // subject to (CPN[b] + 1) * |B_b| <= |V'_released(b)| so the sample never
  // outgrows the released graph's cell.
  std::vector<size_t> cpn(num_backbone_cells, 0);
  int64_t budget = static_cast<int64_t>(target_vertices) -
                   static_cast<int64_t>(backbone.graph.NumVertices());
  std::vector<double> feasible;  // Hoisted: one fill per draw, no realloc.
  while (budget > 0) {
    feasible.assign(num_backbone_cells, 0.0);
    bool any = false;
    for (uint32_t b = 0; b < num_backbone_cells; ++b) {
      const size_t unit = backbone.partition.cells[b].size();
      const size_t cap = partition.cells[released_cell[b]].size();
      if ((cpn[b] + 2) * unit <= cap) {  // Room for one more copy.
        feasible[b] = (*weights)[released_cell[b]];
        any = any || feasible[b] > 0.0;
      }
    }
    if (!any) break;  // All cells saturated; sample stays smaller than n.
    const size_t b = rng.NextDiscrete(feasible);
    ++cpn[b];
    budget -= static_cast<int64_t>(backbone.partition.cells[b].size());
  }

  // Regrow: Algorithm 1 on the backbone, CPN[b] whole-cell copies of each
  // backbone cell b.
  CopyPlan plan(backbone.partition);
  size_t copy_operations = 0;
  for (uint32_t b = 0; b < num_backbone_cells; ++b) {
    if (cpn[b] == 0) continue;
    KSYM_RETURN_IF_ERROR(plan.AddCell(b, backbone.partition.cells[b], cpn[b]));
    copy_operations += cpn[b];
  }
  KSYM_ASSIGN_OR_RETURN(Graph sample, ReleasedGraph(backbone.graph, plan));
  if (stats != nullptr) {
    stats->backbone_vertices = backbone.graph.NumVertices();
    stats->copy_operations = copy_operations;
    stats->requested_vertices = target_vertices;
    stats->sampled_vertices = sample.NumVertices();
  }
  return sample;
}

Result<Graph> ApproximateBackboneSample(const Graph& graph,
                                        const VertexPartition& partition,
                                        size_t target_vertices, Rng& rng,
                                        const std::vector<double>* weights,
                                        SampleStats* stats) {
  const size_t n = graph.NumVertices();
  if (partition.cell_of.size() != n) {
    return Status::InvalidArgument("partition does not match graph");
  }
  if (n == 0) return Graph(0);
  std::vector<double> default_weights;
  if (weights == nullptr) {
    default_weights = SizeAwareCellWeights(graph, partition);
    weights = &default_weights;
  }
  if (weights->size() != partition.cells.size()) {
    return Status::InvalidArgument("one weight per cell required");
  }
  target_vertices = std::min(target_vertices, n);

  // Quotas: one per cell, then distribute the rest with probability p[i]
  // subject to S[i] < |V'_i| (Algorithm 4, lines 1-6).
  const size_t num_cells = partition.cells.size();
  std::vector<size_t> quota(num_cells, 1);
  int64_t budget = static_cast<int64_t>(target_vertices) -
                   static_cast<int64_t>(num_cells);
  std::vector<double> feasible;  // Hoisted: one fill per draw, no realloc.
  while (budget > 0) {
    feasible.assign(num_cells, 0.0);
    bool any = false;
    for (size_t i = 0; i < num_cells; ++i) {
      if (quota[i] < partition.cells[i].size()) {
        feasible[i] = (*weights)[i];
        any = any || feasible[i] > 0.0;
      }
    }
    if (!any) break;
    const size_t i = rng.NextDiscrete(feasible);
    ++quota[i];
    --budget;
  }

  // Quota-guided DFS (Algorithm 5), iterative to survive deep graphs. Only
  // selected vertices are expanded, as in the paper. Neighbour order is
  // randomized so repeated draws explore different regions. If a component
  // is exhausted before the budget, restart from a fresh unvisited root
  // (supports disconnected releases).
  std::vector<bool> visited(n, false);
  std::vector<bool> selected(n, false);
  int64_t remaining = static_cast<int64_t>(target_vertices);
  std::vector<VertexId> roots(n);
  for (VertexId v = 0; v < n; ++v) roots[v] = v;
  rng.Shuffle(roots.begin(), roots.end());
  size_t root_cursor = 0;
  std::vector<VertexId> stack;
  std::vector<VertexId> scratch;

  while (remaining > 0 && root_cursor < roots.size()) {
    const VertexId root = roots[root_cursor++];
    if (visited[root]) continue;
    visited[root] = true;
    const uint32_t root_cell = partition.cell_of[root];
    if (quota[root_cell] == 0) continue;  // Unselected roots are dead ends.
    selected[root] = true;
    --quota[root_cell];
    --remaining;
    stack.push_back(root);
    while (!stack.empty() && remaining > 0) {
      const VertexId v = stack.back();
      stack.pop_back();
      const auto neighbors = graph.Neighbors(v);
      scratch.assign(neighbors.begin(), neighbors.end());
      rng.Shuffle(scratch.begin(), scratch.end());
      for (VertexId u : scratch) {
        if (remaining <= 0) break;
        if (visited[u]) continue;
        visited[u] = true;
        const uint32_t cell = partition.cell_of[u];
        if (quota[cell] == 0) continue;
        selected[u] = true;
        --quota[cell];
        --remaining;
        stack.push_back(u);
      }
    }
    stack.clear();
  }

  std::vector<VertexId> chosen;
  chosen.reserve(target_vertices);
  for (VertexId v = 0; v < n; ++v) {
    if (selected[v]) chosen.push_back(v);
  }
  Graph sample = InducedSubgraph(graph, chosen);
  if (stats != nullptr) {
    stats->requested_vertices = target_vertices;
    stats->sampled_vertices = sample.NumVertices();
  }
  return sample;
}

Result<std::vector<Graph>> DrawSamples(const Graph& graph,
                                       const VertexPartition& partition,
                                       const BatchSampleOptions& options,
                                       const Rng& rng,
                                       std::vector<SampleStats>* stats) {
  if (partition.cell_of.size() != graph.NumVertices()) {
    return Status::InvalidArgument("partition does not match graph");
  }
  // Resolve the default weights once: the per-sample calls share one vector
  // instead of recomputing it num_samples times.
  std::vector<double> default_weights;
  const std::vector<double>* weights = options.weights;
  if (weights == nullptr) {
    default_weights = SizeAwareCellWeights(graph, partition);
    weights = &default_weights;
  }
  if (weights->size() != partition.cells.size()) {
    return Status::InvalidArgument("one weight per cell required");
  }

  const size_t num_samples = options.num_samples;
  std::vector<Graph> samples(num_samples);
  std::vector<Status> statuses(num_samples);
  if (stats != nullptr) {
    stats->assign(num_samples, SampleStats{});
  }
  // Sample i depends only on rng.Fork(i): any shard assignment yields the
  // same batch. Workers run the single-sample algorithms sequentially (no
  // nested context — the pool is not reentrant).
  ThreadPool* pool =
      options.context == nullptr ? nullptr : options.context->pool();
  ParallelFor(pool, num_samples,
              [&graph, &partition, &options, &rng, weights, stats, &samples,
               &statuses](size_t begin, size_t end, uint32_t) {
                for (size_t i = begin; i < end; ++i) {
                  Rng sample_rng = rng.Fork(i);
                  SampleStats* sample_stats =
                      stats == nullptr ? nullptr : &(*stats)[i];
                  auto sample =
                      options.exact
                          ? ExactBackboneSample(graph, partition,
                                                options.target_vertices,
                                                sample_rng, weights,
                                                sample_stats)
                          : ApproximateBackboneSample(graph, partition,
                                                      options.target_vertices,
                                                      sample_rng, weights,
                                                      sample_stats);
                  if (sample.ok()) {
                    samples[i] = std::move(sample).value();
                  } else {
                    statuses[i] = sample.status();
                  }
                }
              });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return samples;
}

}  // namespace ksym
