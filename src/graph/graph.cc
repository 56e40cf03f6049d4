#include "graph/graph.h"

#include <algorithm>
#include <utility>

namespace ksym {

namespace {

// Shared cheap-invariant checks for the two adoption entry points. The full
// per-range scan stays debug-only; untrusted bytes go through graph/io.h's
// validator before reaching either.
void CheckCsrInvariants(std::span<const EdgeIndex> offsets,
                        std::span<const VertexId> neighbors) {
  KSYM_CHECK(!offsets.empty());
  KSYM_CHECK(offsets.front() == 0);
  KSYM_CHECK(offsets.back() == neighbors.size());
  KSYM_CHECK(neighbors.size() % 2 == 0);  // Symmetric adjacency.
#ifndef NDEBUG
  const size_t n = offsets.size() - 1;
  for (size_t v = 0; v < n; ++v) {
    KSYM_DCHECK(offsets[v] <= offsets[v + 1]);
    for (EdgeIndex i = offsets[v]; i < offsets[v + 1]; ++i) {
      KSYM_DCHECK(neighbors[i] < n);
      KSYM_DCHECK(neighbors[i] != v);  // No self-loops.
      KSYM_DCHECK(i == offsets[v] || neighbors[i - 1] < neighbors[i]);
    }
  }
#endif
}

}  // namespace

Graph Graph::FromCsr(std::vector<EdgeIndex> offsets,
                     std::vector<VertexId> neighbors) {
  CheckCsrInvariants(offsets, neighbors);
  Graph graph;
  graph.AdoptStorage(std::move(offsets), std::move(neighbors));
  return graph;
}

Graph Graph::FromBorrowedCsr(std::span<const EdgeIndex> offsets,
                             std::span<const VertexId> neighbors) {
  CheckCsrInvariants(offsets, neighbors);
  Graph graph;
  // Free the default ctor's 1-entry array. Note `= {}` would pick the
  // initializer_list overload and keep the capacity.
  graph.offsets_storage_ = std::vector<EdgeIndex>();
  graph.neighbors_storage_ = std::vector<VertexId>();
  graph.offsets_ = offsets;
  graph.neighbors_ = neighbors;
  graph.borrowed_ = true;
  return graph;
}

void Graph::AdoptStorage(std::vector<EdgeIndex> offsets,
                         std::vector<VertexId> neighbors) {
  offsets_storage_ = std::move(offsets);
  neighbors_storage_ = std::move(neighbors);
  SyncViews();
}

Graph::Graph(const Graph& other)
    : offsets_storage_(other.offsets_storage_),
      neighbors_storage_(other.neighbors_storage_) {
  if (other.borrowed_) {
    // Copying a borrowed graph materializes an owning deep copy: a copy
    // never aliases external storage, so it cannot dangle when the mapping
    // behind the original is unmapped (DESIGN.md §9). Moves keep borrowing.
    offsets_storage_.assign(other.offsets_.begin(), other.offsets_.end());
    neighbors_storage_.assign(other.neighbors_.begin(),
                              other.neighbors_.end());
  }
  SyncViews();
}

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) {
    Graph copy(other);
    *this = std::move(copy);
  }
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : offsets_storage_(std::move(other.offsets_storage_)),
      neighbors_storage_(std::move(other.neighbors_storage_)),
      offsets_(std::exchange(other.offsets_, {})),
      neighbors_(std::exchange(other.neighbors_, {})),
      borrowed_(std::exchange(other.borrowed_, false)) {}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    offsets_storage_ = std::move(other.offsets_storage_);
    neighbors_storage_ = std::move(other.neighbors_storage_);
    offsets_ = std::exchange(other.offsets_, {});
    neighbors_ = std::exchange(other.neighbors_, {});
    borrowed_ = std::exchange(other.borrowed_, false);
  }
  return *this;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  KSYM_DCHECK(u + 1 < offsets_.size());
  KSYM_DCHECK(v + 1 < offsets_.size());
  // Search the shorter range.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  const VertexId* lo = neighbors_.data() + offsets_[u];
  const VertexId* hi = neighbors_.data() + offsets_[u + 1];
  return std::binary_search(lo, hi, v);
}

std::vector<std::pair<VertexId, VertexId>> Graph::Edges() const {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(NumEdges());
  ForEachEdge([&edges](VertexId u, VertexId v) { edges.emplace_back(u, v); });
  return edges;
}

std::vector<size_t> Graph::Degrees() const {
  const size_t n = NumVertices();
  std::vector<size_t> degrees(n);
  for (size_t v = 0; v < n; ++v) {
    degrees[v] = static_cast<size_t>(offsets_[v + 1] - offsets_[v]);
  }
  return degrees;
}

GraphBuilder::GraphBuilder(size_t num_vertices)
    : num_vertices_(num_vertices) {}

VertexId GraphBuilder::AddVertex() {
  return static_cast<VertexId>(num_vertices_++);
}

void GraphBuilder::EnsureVertices(size_t n) {
  if (n > num_vertices_) num_vertices_ = n;
}

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  if (u == v) return;  // Simple graph: no self-loops.
  if (u > v) std::swap(u, v);
  EnsureVertices(static_cast<size_t>(v) + 1);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::Build() const {
  std::vector<std::pair<VertexId, VertexId>> edges = edges_;
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // Counting-sort straight into CSR: count degrees, prefix-sum into
  // offsets, then scatter with per-vertex cursors. Scanning the (u, v)
  // pairs in lexicographic order fills every range sorted: u first receives
  // its back-neighbours w < u (from edges (w, u), all scanned earlier in
  // increasing w order), then its forward neighbours v > u in increasing v
  // order.
  std::vector<EdgeIndex> offsets(num_vertices_ + 1, 0);
  for (const auto& [u, v] : edges) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (size_t i = 1; i <= num_vertices_; ++i) {
    offsets[i] += offsets[i - 1];
  }
  std::vector<VertexId> neighbors(2 * edges.size());
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    neighbors[cursor[u]++] = v;
    neighbors[cursor[v]++] = u;
  }
  Graph graph;
  graph.AdoptStorage(std::move(offsets), std::move(neighbors));
  return graph;
}

}  // namespace ksym
