#include "ksym/sampling.h"

#include <algorithm>
#include <cmath>

#include "common/str.h"
#include "graph/algorithms.h"
#include "ksym/anonymizer.h"
#include "ksym/backbone.h"

namespace ksym {
namespace {

/// One finite, non-negative weight per cell, as the quota draws require.
Status CheckCellWeights(const std::vector<double>& weights,
                        size_t num_cells) {
  if (weights.size() != num_cells) {
    return Status::InvalidArgument("one weight per cell required");
  }
  for (size_t i = 0; i < num_cells; ++i) {
    if (!(std::isfinite(weights[i]) && weights[i] >= 0.0)) {
      return Status::InvalidArgument(StrFormat(
          "cell %zu has weight %g; weights must be finite and non-negative",
          i, weights[i]));
    }
  }
  return Status::Ok();
}

/// The quota step of both samplers (Algorithm 3's CPN[b], Algorithm 4's
/// S[i]): spends `budget` vertices one draw at a time. A draw picks a cell c
/// that has room with probability proportional to weight(c), adds one to
/// counts[c] and charges cost(c); c leaves the draws once
/// has_room(c, counts[c]) turns false. Stops under budget once no cell has
/// room. The draw tree is freed on return, before the caller's next step.
template <typename Weight, typename Cost, typename HasRoom>
void SpendBudget(int64_t budget, const Weight& weight, const Cost& cost,
                 const HasRoom& has_room, std::vector<size_t>& counts,
                 Rng& rng) {
  std::vector<double> room(counts.size(), 0.0);
  for (size_t c = 0; c < counts.size(); ++c) {
    if (has_room(c, counts[c])) room[c] = weight(c);
  }
  DiscreteSumTree draws(room);
  while (budget > 0 && draws.Total() > 0.0) {
    const size_t c = draws.Draw(rng);
    budget -= cost(c);
    ++counts[c];
    if (!has_room(c, counts[c])) draws.Remove(c);
  }
}

/// Algorithm 3 after its backbone step: regrows `backbone`, the backbone of
/// a release with cells `partition`, by CPN[b] whole-cell copies of each
/// backbone cell b, which is release cell b restricted to the backbone.
/// `weights` has been checked against `partition`.
Result<Graph> RegrowBackbone(const VertexPartition& partition,
                             const BackboneResult& backbone,
                             size_t target_vertices, Rng& rng,
                             const std::vector<double>& weights,
                             SampleStats* stats) {
  // Distribute the vertex budget: CPN[b] copy operations per backbone cell,
  // subject to (CPN[b] + 1) * |B_b| <= |V'_b| so the sample never outgrows
  // the released graph's cell. Once every cell is saturated the sample
  // stays smaller than n.
  const size_t num_backbone_cells = backbone.partition.cells.size();
  std::vector<size_t> cpn(num_backbone_cells, 0);
  SpendBudget(
      static_cast<int64_t>(target_vertices) -
          static_cast<int64_t>(backbone.graph.NumVertices()),
      [&](size_t b) { return weights[b]; },
      [&](size_t b) {
        return static_cast<int64_t>(backbone.partition.cells[b].size());
      },
      [&](size_t b, size_t copies) {  // Room for one more copy.
        return (copies + 2) * backbone.partition.cells[b].size() <=
               partition.cells[b].size();
      },
      cpn, rng);

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

}  // namespace

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
  KSYM_RETURN_IF_ERROR(CheckCellWeights(*weights, partition.cells.size()));
  return RegrowBackbone(partition, ComputeBackbone(graph, partition, nullptr),
                        target_vertices, rng, *weights, stats);
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
  KSYM_RETURN_IF_ERROR(CheckCellWeights(*weights, partition.cells.size()));
  target_vertices = std::min(target_vertices, n);

  // Quotas: one per cell, then distribute the rest with probability p[i]
  // subject to S[i] < |V'_i| (Algorithm 4, lines 1-6).
  const size_t num_cells = partition.cells.size();
  std::vector<size_t> quota(num_cells, 1);
  SpendBudget(
      static_cast<int64_t>(target_vertices) - static_cast<int64_t>(num_cells),
      [&](size_t i) { return (*weights)[i]; },
      [](size_t) { return int64_t{1}; },
      [&](size_t i, size_t s) { return s < partition.cells[i].size(); },
      quota, rng);

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
  KSYM_RETURN_IF_ERROR(CheckCellWeights(*weights, partition.cells.size()));

  const size_t num_samples = options.num_samples;
  std::vector<Graph> samples(num_samples);
  std::vector<Status> statuses(num_samples);
  if (stats != nullptr) {
    stats->assign(num_samples, SampleStats{});
  }
  // An exact batch computes the backbone once; each sample regrows it.
  BackboneResult backbone;
  if (options.exact && num_samples > 0) {
    backbone = ComputeBackbone(graph, partition, nullptr);
  }
  // Sample i depends only on rng.Fork(i): any shard assignment yields the
  // same batch. Workers run the single-sample algorithms sequentially (no
  // nested context — the pool is not reentrant).
  ThreadPool* pool =
      options.context == nullptr ? nullptr : options.context->pool();
  ParallelFor(pool, num_samples,
              [&graph, &partition, &options, &rng, weights, stats, &backbone,
               &samples, &statuses](size_t begin, size_t end, uint32_t) {
                for (size_t i = begin; i < end; ++i) {
                  Rng sample_rng = rng.Fork(i);
                  SampleStats* sample_stats =
                      stats == nullptr ? nullptr : &(*stats)[i];
                  auto sample =
                      options.exact
                          ? RegrowBackbone(partition, backbone,
                                           options.target_vertices,
                                           sample_rng, *weights, sample_stats)
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
