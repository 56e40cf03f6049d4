// Backbone-based sampling — Section 4.2 of the paper.
//
// The analyst receives the release triple (G', V', n = |V(G)|) and draws
// approximate versions of the original network from it:
//
//  * ExactBackboneSample (Algorithm 3): computes the backbone of (G', V'),
//    then regrows it by orbit copying, distributing the n - |V(B)| vertex
//    budget over backbone cells with probability p[i] (default size-aware,
//    |V'_i|^2 / d_i; see SizeAwareCellWeights).
//
//  * ApproximateBackboneSample (Algorithms 4-5): distributes per-cell
//    selection quotas S[i] and takes a quota-guided depth-first traversal
//    of G'; returns the subgraph induced by the selected vertices. With C
//    cells, the quotas cost O(C + draws * log C) (one DiscreteSumTree draw
//    per quota unit, a cell leaving the tree when it fills) and the DFS
//    O(n' + m').
//
// Both are randomized; pass a seeded Rng for reproducibility. Weights must
// be finite and non-negative, one per cell: a vector of the wrong length is
// rejected with InvalidArgument, and so is a NaN, negative or infinite
// weight, with an error naming the first such cell and its value.

#ifndef KSYM_KSYM_SAMPLING_H_
#define KSYM_KSYM_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "aut/orbits.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "graph/graph.h"

namespace ksym {

/// Cell sampling probabilities p[i] proportional to 1/d_i, where d_i is the
/// (shared) degree of cell i's vertices in `graph`; degree-0 cells get the
/// weight of degree-1 cells. This is the weighting suggested in the paper
/// for right-skewed social networks.
std::vector<double> InverseDegreeCellWeights(const Graph& graph,
                                             const VertexPartition& partition);

/// Size-aware weighting p[i] proportional to |V'_i|^2 / d_i — the library
/// default. The vertex budget is distributed one cell-draw at a time, so a
/// cell's expected quota is proportional to its weight; weighting by
/// released size (squared, to counter the copy inflation of small cells)
/// keeps genuinely large cells — hub leaf sets — from being starved. On
/// hub-dominated releases this recovers the paper's reported utility where
/// the plain 1/d weighting does not (see bench_ablation_sampling).
std::vector<double> SizeAwareCellWeights(const Graph& graph,
                                         const VertexPartition& partition);

struct SampleStats {
  size_t backbone_vertices = 0;  // Exact sampler only.
  size_t copy_operations = 0;    // Exact sampler only.
  size_t requested_vertices = 0;
  size_t sampled_vertices = 0;
};

/// Algorithm 3. Regrows the backbone of (graph, partition) to approximately
/// `target_vertices` vertices (may overshoot by at most one cell unit).
/// `weights`, if non-null, must have one finite, non-negative entry per
/// partition cell; defaults to SizeAwareCellWeights.
Result<Graph> ExactBackboneSample(const Graph& graph,
                                  const VertexPartition& partition,
                                  size_t target_vertices, Rng& rng,
                                  const std::vector<double>* weights = nullptr,
                                  SampleStats* stats = nullptr);

/// Algorithms 4-5. Selects exactly min(target_vertices, reachable) vertices
/// via a quota-guided DFS and returns the induced subgraph.
Result<Graph> ApproximateBackboneSample(
    const Graph& graph, const VertexPartition& partition,
    size_t target_vertices, Rng& rng,
    const std::vector<double>* weights = nullptr,
    SampleStats* stats = nullptr);

/// Batch sampling policy for DrawSamples (the Figures 8-9 workload: 20-100
/// draws from one release).
struct BatchSampleOptions {
  size_t num_samples = 1;
  size_t target_vertices = 0;
  bool exact = false;  // Algorithm 3 when true, Algorithms 4-5 otherwise.
  const std::vector<double>* weights = nullptr;  // Default: size-aware.
  const ExecutionContext* context = nullptr;
};

/// Draws options.num_samples independent samples from (graph, partition).
/// Sample i is seeded from rng.Fork(i) — a pure function of the caller's
/// Rng state and the index — so the batch is identical whether the draws
/// run sequentially or sharded across options.context's pool, and `rng` is
/// never advanced. `stats`, if non-null, is resized to one entry per
/// sample. On failure returns the lowest-indexed sample's error.
Result<std::vector<Graph>> DrawSamples(const Graph& graph,
                                       const VertexPartition& partition,
                                       const BatchSampleOptions& options,
                                       const Rng& rng,
                                       std::vector<SampleStats>* stats = nullptr);

}  // namespace ksym

#endif  // KSYM_KSYM_SAMPLING_H_
