#include "ksym/backbone.h"

#include <algorithm>
#include <utility>

#include "aut/canonical.h"
#include "common/intern.h"

namespace ksym {
namespace {

constexpr uint32_t kNone = ~uint32_t{0};

}  // namespace

CellCopyClasses::CellCopyClasses(const Graph& graph)
    : graph_(graph), index_of_(graph.NumVertices()), extractor_(graph) {}

void CellCopyClasses::Classify(const VertexPartition& partition,
                               uint32_t cell) {
  const std::vector<VertexId>& members = partition.cells[cell];
  for (uint32_t i = 0; i < members.size(); ++i) index_of_[members[i]] = i;

  // Components by BFS from the lowest unreached member, so they come out
  // numbered by minimum member, each sorted after its search. The search
  // counts each member's degree inside its component (kNone: unreached).
  by_component_.clear();
  start_.clear();
  degree_.assign(members.size(), kNone);
  for (uint32_t first = 0; first < members.size(); ++first) {
    if (degree_[first] != kNone) continue;
    start_.push_back(static_cast<uint32_t>(by_component_.size()));
    degree_[first] = 0;
    by_component_.push_back(members[first]);
    for (size_t head = start_.back(); head < by_component_.size(); ++head) {
      const VertexId v = by_component_[head];
      for (VertexId u : graph_.Neighbors(v)) {
        if (partition.cell_of[u] != cell) continue;
        ++degree_[index_of_[v]];
        uint32_t& degree = degree_[index_of_[u]];
        if (degree == kNone) {
          degree = 0;
          by_component_.push_back(u);
        }
      }
    }
    std::sort(by_component_.begin() + start_.back(), by_component_.end());
  }
  const uint32_t num_components = static_cast<uint32_t>(start_.size());
  start_.push_back(static_cast<uint32_t>(by_component_.size()));
  copy_of_.assign(num_components, 0);
  if (num_components <= 1) return;

  // L(V) colours: one per distinct neighbourhood outside the cell.
  std::vector<std::vector<VertexId>> outside(members.size());
  for (uint32_t i = 0; i < members.size(); ++i) {
    for (VertexId u : graph_.Neighbors(members[i])) {
      if (partition.cell_of[u] != cell) outside[i].push_back(u);
    }
  }
  const std::vector<uint32_t> color = InternLabels(std::move(outside));

  // Invariant keys: (size, edges, sorted (colour, degree) pairs). They
  // decide components of at most three vertices: one vertex is decided by
  // its colour, two by their colour pair, P3 by its centre (the degree-2
  // entry) and its leaves, and K3 by its colour multiset. Four are not: the
  // paths a-b-c-d and a-c-b-d share a key.
  std::vector<std::vector<uint64_t>> keys(num_components);
  bool any_large = false;
  for (uint32_t c = 0; c < num_components; ++c) {
    std::vector<uint64_t>& key = keys[c];
    key = {Members(c).size(), 0};
    for (VertexId v : Members(c)) {
      const uint32_t i = index_of_[v];
      key[1] += degree_[i];
      key.push_back(uint64_t{color[i]} << 32 | degree_[i]);
    }
    key[1] /= 2;
    std::sort(key.begin() + 2, key.end());
    any_large |= Members(c).size() > 3;
  }
  std::vector<uint32_t> key_label = InternLabels(std::move(keys));

  // So a component of four or more vertices whose key another shares is
  // keyed exactly by its key's label and its coloured canonical form
  // (edges, then colours), one canonical search per component.
  if (any_large) {
    std::vector<uint32_t> sharing(num_components, 0);
    for (uint32_t label : key_label) ++sharing[label];
    std::vector<std::pair<uint32_t, std::vector<uint64_t>>> exact(
        num_components);
    for (uint32_t c = 0; c < num_components; ++c) {
      exact[c].first = key_label[c];
      if (Members(c).size() <= 3 || sharing[key_label[c]] == 1) continue;
      std::vector<uint32_t> colors;
      for (VertexId v : Members(c)) colors.push_back(color[index_of_[v]]);
      const CanonicalForm form =
          ComputeCanonicalForm(extractor_.Extract(Members(c)), colors);
      for (const auto& [a, b] : form.edges) {
        exact[c].second.push_back(uint64_t{a} << 32 | b);
      }
      exact[c].second.insert(exact[c].second.end(), form.colors.begin(),
                             form.colors.end());
    }
    key_label = InternLabels(std::move(exact));
  }

  // Labels number keys by first occurrence, so label l's first component
  // is the one where l first appears.
  std::vector<uint32_t> first_with;
  for (uint32_t c = 0; c < num_components; ++c) {
    if (key_label[c] == first_with.size()) first_with.push_back(c);
    copy_of_[c] = first_with[key_label[c]];
  }
}

BackboneResult ComputeBackbone(const Graph& graph,
                               const VertexPartition& partition,
                               const ExecutionContext* context) {
  ScopedPhaseTimer timer(context, &RefinementStats::backbone_seconds);
  const size_t n = graph.NumVertices();
  KSYM_CHECK(partition.cell_of.size() == n);

  // Remove every component that copies an earlier one of its cell.
  BackboneResult result;
  std::vector<bool> alive(n, true);
  CellCopyClasses classes(graph);
  for (uint32_t cell = 0; cell < partition.cells.size(); ++cell) {
    classes.Classify(partition, cell);
    for (uint32_t c = 0; c < classes.NumComponents(); ++c) {
      if (classes.CopyOf(c) == c) continue;
      for (VertexId v : classes.Members(c)) alive[v] = false;
      result.removed_vertices += classes.Members(c).size();
      ++result.reduction_operations;
    }
  }

  // Compact the survivors into the backbone graph + partition. Component 0
  // holds its cell's minimum and copies nothing, so every cell survives,
  // in the same order.
  for (VertexId v = 0; v < n; ++v) {
    if (alive[v]) result.kept.push_back(v);
  }
  result.graph = InducedSubgraph(graph, result.kept);
  std::vector<VertexId> to_new(n, kInvalidVertex);
  for (size_t i = 0; i < result.kept.size(); ++i) {
    to_new[result.kept[i]] = static_cast<VertexId>(i);
  }
  std::vector<std::vector<VertexId>> new_cells(partition.cells.size());
  for (uint32_t b = 0; b < partition.cells.size(); ++b) {
    for (VertexId v : partition.cells[b]) {
      if (alive[v]) new_cells[b].push_back(to_new[v]);
    }
  }
  result.partition =
      VertexPartition::FromCells(result.kept.size(), std::move(new_cells));
  return result;
}

}  // namespace ksym
