// Classic graph algorithms needed by the measures, utility statistics, and
// the k-symmetry machinery: connectivity, BFS distances, triangles,
// clustering coefficients, induced subgraphs, and summary statistics.

#ifndef KSYM_GRAPH_ALGORITHMS_H_
#define KSYM_GRAPH_ALGORITHMS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace ksym {

/// Result of a connected-components decomposition.
struct ComponentInfo {
  /// component[v] is the component index of v, in [0, num_components).
  std::vector<uint32_t> component;
  uint32_t num_components = 0;
  /// sizes[c] is the number of vertices in component c.
  std::vector<size_t> sizes;
};

/// Computes connected components with iterative BFS.
ComponentInfo ConnectedComponents(const Graph& graph);

/// True iff the graph has exactly one connected component (the empty graph
/// and the single-vertex graph count as connected).
bool IsConnected(const Graph& graph);

/// Number of vertices in the largest connected component (0 for an empty
/// graph).
size_t LargestComponentSize(const Graph& graph);

/// BFS distances from `source`; unreachable vertices get -1.
std::vector<int64_t> BfsDistances(const Graph& graph, VertexId source);

/// Allocation-free variant for repeated BFS sweeps: `dist` is resized and
/// reset, `queue` is reused as scratch. Semantics match BfsDistances.
void BfsDistancesInto(const Graph& graph, VertexId source,
                      std::vector<int64_t>& dist, std::vector<VertexId>& queue);

/// Exact s-t distances by level-synchronous bidirectional BFS (Pohl 1971),
/// with reusable O(n) scratch. Each step expands the whole frontier of the
/// side with the smaller adjacency volume (sum of degrees); the first
/// neighbour already reached by the other side ends the search. A pair
/// costs O(touched): visited marks carry an epoch, so a new pair resets
/// nothing. Each search with s != t adds one `kBfsExpand` call count.
class PairDistance {
 public:
  explicit PairDistance(const Graph& graph);

  /// dist(s, t): 0 when s == t, -1 when t is unreachable from s.
  int64_t operator()(VertexId s, VertexId t);

 private:
  const Graph& graph_;
  // mark_[v] is 2 * epoch_ when side s reached v in this search and
  // 2 * epoch_ + 1 when side t did; anything smaller is unvisited.
  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;
  std::vector<VertexId> frontier_[2];
  std::vector<VertexId> next_;
};

/// Per-vertex triangle counts: tri(v) = number of triangles through v.
/// Runs in O(sum_over_edges min(deg)) using sorted-adjacency merge, as one
/// sequential scan: a scan sharded across threads paid off in no benchmark
/// (DESIGN.md §8).
std::vector<uint64_t> TriangleCounts(const Graph& graph);

/// Total number of triangles in the graph (each counted once).
uint64_t TotalTriangles(const Graph& graph);

/// Local clustering coefficient per vertex:
/// c(v) = 2 * tri(v) / (deg(v) * (deg(v) - 1)); 0 when deg(v) < 2.
std::vector<double> ClusteringCoefficients(const Graph& graph);

/// The subgraph induced by `vertices` (need not be sorted; must be
/// duplicate-free). Vertex i of the result corresponds to vertices[i];
/// `vertices` itself is the result-to-input mapping.
Graph InducedSubgraph(const Graph& graph, const std::vector<VertexId>& vertices);

/// Extracts induced subgraphs with reusable O(n) scratch. Callers that pull
/// many subgraphs out of one large graph (ego networks, backbone cells)
/// would otherwise pay an O(n) allocation + clear per extraction; the
/// extractor resets only the entries it touched.
class SubgraphExtractor {
 public:
  explicit SubgraphExtractor(const Graph& graph);

  /// Same contract as InducedSubgraph(graph, vertices).
  Graph Extract(std::span<const VertexId> vertices);

 private:
  const Graph& graph_;
  std::vector<VertexId> to_new_;  // kInvalidVertex except inside Extract.
};

/// Relabels the graph by permutation `perm` where perm[v] is the new id of
/// old vertex v. perm must be a bijection on [0, n).
Graph RelabelGraph(const Graph& graph, const std::vector<VertexId>& perm);

/// Disjoint union: vertices of `b` are shifted by a.NumVertices().
Graph DisjointUnion(const Graph& a, const Graph& b);

/// Summary degree statistics as reported in the paper's Table 1.
struct DegreeStats {
  size_t num_vertices = 0;
  size_t num_edges = 0;
  size_t min_degree = 0;
  size_t max_degree = 0;
  double median_degree = 0.0;
  double average_degree = 0.0;
};

DegreeStats ComputeDegreeStats(const Graph& graph);

}  // namespace ksym

#endif  // KSYM_GRAPH_ALGORITHMS_H_
