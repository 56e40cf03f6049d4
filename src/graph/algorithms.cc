#include "graph/algorithms.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "simd/simd.h"

namespace ksym {

ComponentInfo ConnectedComponents(const Graph& graph) {
  const size_t n = graph.NumVertices();
  ComponentInfo info;
  info.component.assign(n, static_cast<uint32_t>(-1));

  std::vector<VertexId> queue;
  for (VertexId start = 0; start < n; ++start) {
    if (info.component[start] != static_cast<uint32_t>(-1)) continue;
    const uint32_t comp = info.num_components++;
    info.sizes.push_back(0);
    queue.clear();
    queue.push_back(start);
    info.component[start] = comp;
    size_t head = 0;
    while (head < queue.size()) {
      const VertexId u = queue[head++];
      ++info.sizes[comp];
      for (VertexId w : graph.Neighbors(u)) {
        if (info.component[w] == static_cast<uint32_t>(-1)) {
          info.component[w] = comp;
          queue.push_back(w);
        }
      }
    }
  }
  return info;
}

bool IsConnected(const Graph& graph) {
  if (graph.NumVertices() <= 1) return true;
  return ConnectedComponents(graph).num_components == 1;
}

size_t LargestComponentSize(const Graph& graph) {
  if (graph.NumVertices() == 0) return 0;
  const ComponentInfo info = ConnectedComponents(graph);
  return *std::max_element(info.sizes.begin(), info.sizes.end());
}

void BfsDistancesInto(const Graph& graph, VertexId source,
                      std::vector<int64_t>& dist,
                      std::vector<VertexId>& queue) {
  const size_t n = graph.NumVertices();
  KSYM_DCHECK(source < n);
  dist.assign(n, -1);
  queue.clear();
  queue.reserve(n);  // Never reallocates below: at most n vertices enqueue.
  dist[source] = 0;
  queue.push_back(source);
  size_t head = 0;
  while (head < queue.size()) {
    const VertexId u = queue[head++];
    const int64_t next = dist[u] + 1;
    for (VertexId w : graph.Neighbors(u)) {
      if (dist[w] < 0) {
        dist[w] = next;
        queue.push_back(w);
      }
    }
  }
  simd::AddSimdCalls(simd::SimdKernel::kBfsExpand, 1);
}

std::vector<int64_t> BfsDistances(const Graph& graph, VertexId source) {
  std::vector<int64_t> dist;
  std::vector<VertexId> queue;
  BfsDistancesInto(graph, source, dist, queue);
  return dist;
}

PairDistance::PairDistance(const Graph& graph)
    : graph_(graph), mark_(graph.NumVertices(), 0) {}

int64_t PairDistance::operator()(VertexId s, VertexId t) {
  KSYM_DCHECK(s < graph_.NumVertices() && t < graph_.NumVertices());
  if (s == t) return 0;
  simd::AddSimdCalls(simd::SimdKernel::kBfsExpand, 1);
  if (epoch_ == UINT32_MAX / 2) {  // 2 * epoch_ + 1 would wrap.
    std::fill(mark_.begin(), mark_.end(), 0);
    epoch_ = 0;
  }
  ++epoch_;
  mark_[s] = 2 * epoch_;
  mark_[t] = 2 * epoch_ + 1;
  frontier_[0].assign(1, s);
  frontier_[1].assign(1, t);
  uint64_t volume[2] = {graph_.Degree(s), graph_.Degree(t)};
  int64_t depth[2] = {0, 0};
  while (true) {
    const uint32_t side = volume[1] < volume[0] ? 1 : 0;
    const uint32_t own = 2 * epoch_ + side;
    const uint32_t other = own ^ 1;
    next_.clear();
    uint64_t next_volume = 0;
    for (VertexId u : frontier_[side]) {
      for (VertexId w : graph_.Neighbors(u)) {
        // No vertex carries both marks, so a hit on the other side's mark
        // is its current frontier, and this level is the first to meet.
        if (mark_[w] == other) return depth[0] + depth[1] + 1;
        if (mark_[w] != own) {
          mark_[w] = own;
          next_.push_back(w);
          next_volume += graph_.Degree(w);
        }
      }
    }
    if (next_.empty()) return -1;  // This side's component is exhausted.
    frontier_[side].swap(next_);
    volume[side] = next_volume;
    ++depth[side];
  }
}

namespace {

// Core of TriangleCounts over the vertex range [begin, end): for each edge
// (u, v) with u < v, intersect sorted neighbor ranges; each common neighbor
// w closes a triangle {u, v, w}. To count each triangle once per edge scan,
// only consider w > v; then credit all three corners via `add(vertex,
// delta)`. The flat sorted ranges make both the forward suffix (> u) and
// the intersection suffix (> v) contiguous: one binary search per vertex,
// and the > v suffix of u's range starts right after v's own slot.
//
// The two suffixes meet in a two-pointer merge that credits each common w
// with 1 as it is found, and u and v with the pair's count afterwards. The
// credits are integers and their sums (plain or relaxed-atomic) commute,
// so the counts are the same at every thread count.
template <typename AddFn>
void CountTrianglesRange(const Graph& graph, VertexId begin, VertexId end,
                         const AddFn& add) {
  uint64_t pairs = 0;
  for (VertexId u = begin; u < end; ++u) {
    const auto nu = graph.Neighbors(u);
    for (auto itv = std::upper_bound(nu.begin(), nu.end(), u);
         itv != nu.end(); ++itv) {
      const VertexId v = *itv;
      const auto nv = graph.Neighbors(v);
      auto a = itv + 1;
      auto b = std::upper_bound(nv.begin(), nv.end(), v);
      uint64_t common = 0;
      while (a != nu.end() && b != nv.end()) {
        if (*a < *b) {
          ++a;
        } else if (*b < *a) {
          ++b;
        } else {
          add(*a, 1);
          ++common;
          ++a;
          ++b;
        }
      }
      ++pairs;
      if (common == 0) continue;
      add(u, common);
      add(v, common);
    }
  }
  simd::AddSimdCalls(simd::SimdKernel::kIntersect, pairs);
}

}  // namespace

std::vector<uint64_t> TriangleCounts(const Graph& graph,
                                     const ExecutionContext* context) {
  const size_t n = graph.NumVertices();
  std::vector<uint64_t> tri(n, 0);
  ThreadPool* pool = context == nullptr ? nullptr : context->pool();
  if (pool == nullptr) {
    CountTrianglesRange(graph, 0, static_cast<VertexId>(n),
                        [&tri](VertexId v, uint64_t c) { tri[v] += c; });
    return tri;
  }
  // Sharded by owning vertex u; corner credits cross shard boundaries, so
  // they go through relaxed atomic adds. Sums of per-triangle contributions
  // commute, hence the totals equal the sequential counts exactly.
  ParallelFor(pool, n, [&graph, &tri](size_t begin, size_t end, uint32_t) {
    CountTrianglesRange(graph, static_cast<VertexId>(begin),
                        static_cast<VertexId>(end),
                        [&tri](VertexId v, uint64_t c) {
                          std::atomic_ref<uint64_t> count(tri[v]);
                          count.fetch_add(c, std::memory_order_relaxed);
                        });
  });
  return tri;
}

uint64_t TotalTriangles(const Graph& graph) {
  const std::vector<uint64_t> tri = TriangleCounts(graph);
  const uint64_t corner_sum = std::accumulate(tri.begin(), tri.end(), uint64_t{0});
  return corner_sum / 3;
}

std::vector<double> ClusteringCoefficients(const Graph& graph,
                                           const ExecutionContext* context) {
  const std::vector<uint64_t> tri = TriangleCounts(graph, context);
  const size_t n = graph.NumVertices();
  std::vector<double> cc(n, 0.0);
  ThreadPool* pool = context == nullptr ? nullptr : context->pool();
  ParallelFor(pool, n, [&graph, &tri, &cc](size_t begin, size_t end, uint32_t) {
    for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
      const size_t d = graph.Degree(v);
      if (d >= 2) {
        cc[v] = 2.0 * static_cast<double>(tri[v]) /
                (static_cast<double>(d) * static_cast<double>(d - 1));
      }
    }
  });
  return cc;
}

SubgraphExtractor::SubgraphExtractor(const Graph& graph)
    : graph_(graph), to_new_(graph.NumVertices(), kInvalidVertex) {}

Graph SubgraphExtractor::Extract(std::span<const VertexId> vertices) {
  const size_t m = vertices.size();
  for (size_t i = 0; i < m; ++i) {
    KSYM_DCHECK(vertices[i] < graph_.NumVertices());
    KSYM_DCHECK(to_new_[vertices[i]] == kInvalidVertex);  // No duplicates.
    to_new_[vertices[i]] = static_cast<VertexId>(i);
  }
  // Assemble CSR directly: count surviving neighbours per member, prefix-sum
  // into offsets, scatter, then sort each range (the id remap is not
  // monotone in general, so source order does not survive).
  std::vector<EdgeIndex> offsets(m + 1, 0);
  for (size_t i = 0; i < m; ++i) {
    size_t kept = 0;
    for (VertexId w : graph_.Neighbors(vertices[i])) {
      kept += to_new_[w] != kInvalidVertex;
    }
    offsets[i + 1] = offsets[i] + kept;
  }
  std::vector<VertexId> neighbors(offsets[m]);
  for (size_t i = 0; i < m; ++i) {
    VertexId* out = neighbors.data() + offsets[i];
    for (VertexId w : graph_.Neighbors(vertices[i])) {
      const VertexId j = to_new_[w];
      if (j != kInvalidVertex) *out++ = j;
    }
    std::sort(neighbors.data() + offsets[i], out);
  }
  for (VertexId v : vertices) to_new_[v] = kInvalidVertex;  // Reset scratch.
  return Graph::FromCsr(std::move(offsets), std::move(neighbors));
}

Graph InducedSubgraph(const Graph& graph,
                      const std::vector<VertexId>& vertices) {
  return SubgraphExtractor(graph).Extract(vertices);
}

Graph RelabelGraph(const Graph& graph, const std::vector<VertexId>& perm) {
  const size_t n = graph.NumVertices();
  KSYM_CHECK(perm.size() == n);
  GraphBuilder builder(n);
  graph.ForEachEdge([&builder, &perm](VertexId u, VertexId v) {
    builder.AddEdge(perm[u], perm[v]);
  });
  Graph out = builder.Build();
  KSYM_CHECK(out.NumEdges() == graph.NumEdges());  // perm was a bijection.
  return out;
}

Graph DisjointUnion(const Graph& a, const Graph& b) {
  const VertexId offset = static_cast<VertexId>(a.NumVertices());
  GraphBuilder builder(a.NumVertices() + b.NumVertices());
  a.ForEachEdge([&builder](VertexId u, VertexId v) { builder.AddEdge(u, v); });
  b.ForEachEdge([&builder, offset](VertexId u, VertexId v) {
    builder.AddEdge(u + offset, v + offset);
  });
  return builder.Build();
}

DegreeStats ComputeDegreeStats(const Graph& graph) {
  DegreeStats stats;
  stats.num_vertices = graph.NumVertices();
  stats.num_edges = graph.NumEdges();
  if (graph.NumVertices() == 0) return stats;

  std::vector<size_t> degrees = graph.Degrees();
  std::sort(degrees.begin(), degrees.end());
  stats.min_degree = degrees.front();
  stats.max_degree = degrees.back();
  const size_t n = degrees.size();
  stats.median_degree =
      (n % 2 == 1) ? static_cast<double>(degrees[n / 2])
                   : (static_cast<double>(degrees[n / 2 - 1]) +
                      static_cast<double>(degrees[n / 2])) /
                         2.0;
  stats.average_degree =
      2.0 * static_cast<double>(graph.NumEdges()) / static_cast<double>(n);
  return stats;
}

}  // namespace ksym
