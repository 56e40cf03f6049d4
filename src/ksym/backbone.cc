#include "ksym/backbone.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "aut/isomorphism.h"
#include "common/intern.h"

namespace ksym {
namespace {

constexpr uint32_t kNone = ~uint32_t{0};

}  // namespace

CellCopyClasses::CellCopyClasses(const Graph& graph)
    : graph_(graph), index_of_(graph.NumVertices()), extractor_(graph) {}

void CellCopyClasses::Classify(const VertexPartition& partition,
                               uint32_t cell, const std::vector<bool>& alive) {
  const auto live = [&alive](VertexId v) { return alive.empty() || alive[v]; };
  members_.clear();
  for (VertexId v : partition.cells[cell]) {
    if (live(v)) members_.push_back(v);
  }
  KSYM_DCHECK(std::is_sorted(members_.begin(), members_.end()));
  for (uint32_t i = 0; i < members_.size(); ++i) index_of_[members_[i]] = i;

  // Components by BFS from the lowest unreached member, so they come out
  // numbered by minimum member, each sorted after its search. The search
  // counts each member's degree inside its component (kNone: unreached).
  by_component_.clear();
  start_.clear();
  degree_.assign(members_.size(), kNone);
  for (uint32_t first = 0; first < members_.size(); ++first) {
    if (degree_[first] != kNone) continue;
    start_.push_back(static_cast<uint32_t>(by_component_.size()));
    degree_[first] = 0;
    by_component_.push_back(members_[first]);
    for (size_t head = start_.back(); head < by_component_.size(); ++head) {
      const VertexId v = by_component_[head];
      for (VertexId u : graph_.Neighbors(v)) {
        if (partition.cell_of[u] != cell || !live(u)) continue;
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
  copy_of_.resize(num_components);
  std::iota(copy_of_.begin(), copy_of_.end(), 0);
  if (num_components <= 1) return;

  // L(V) colours: one per distinct live neighbourhood outside the cell.
  std::vector<std::vector<VertexId>> outside(members_.size());
  for (uint32_t i = 0; i < members_.size(); ++i) {
    for (VertexId u : graph_.Neighbors(members_[i])) {
      if (partition.cell_of[u] != cell && live(u)) outside[i].push_back(u);
    }
  }
  const std::vector<uint32_t> color = InternLabels(std::move(outside));
  const auto colors_of = [&](uint32_t c) {
    std::vector<uint32_t> colors;
    for (VertexId v : Members(c)) colors.push_back(color[index_of_[v]]);
    return colors;
  };

  // Invariant keys: (size, edges, sorted (colour, degree) pairs).
  std::vector<std::vector<uint64_t>> keys(num_components);
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
  }
  const std::vector<uint32_t> key_label = InternLabels(std::move(keys));

  // Each component against the earlier class firsts with its key, chained
  // from the latest through next_first. A component of at most three
  // vertices copies any component with its key, whose class is then the
  // only one: one vertex is decided by its colour, two by their colour
  // pair, P3 by its centre (the degree-2 entry) and its leaves, and K3 by
  // its colour multiset. Four are not: the paths a-b-c-d and a-c-b-d share
  // a key.
  std::vector<uint32_t> latest_first(num_components, kNone);
  std::vector<uint32_t> next_first(num_components, kNone);
  for (uint32_t c = 0; c < num_components; ++c) {
    uint32_t& latest = latest_first[key_label[c]];
    if (latest != kNone && Members(c).size() <= 3) {
      copy_of_[c] = latest;
    } else if (latest != kNone) {
      const Graph component = extractor_.Extract(Members(c));
      const std::vector<uint32_t> colors = colors_of(c);
      for (uint32_t d = latest; d != kNone; d = next_first[d]) {
        if (AreIsomorphic(component, extractor_.Extract(Members(d)), colors,
                          colors_of(d))) {
          copy_of_[c] = d;
          break;
        }
      }
    }
    if (copy_of_[c] == c) {
      next_first[c] = latest;
      latest = c;
    }
  }
}

BackboneResult ComputeBackbone(const Graph& graph,
                               const VertexPartition& partition,
                               const ExecutionContext* context) {
  ScopedPhaseTimer timer(context, &RefinementStats::backbone_seconds);
  const size_t n = graph.NumVertices();
  KSYM_CHECK(partition.cell_of.size() == n);

  BackboneResult result;
  std::vector<bool> alive(n, true);

  // Remove every component that copies an earlier one, cell by cell, until
  // a pass removes nothing.
  CellCopyClasses classes(graph);
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t cell = 0; cell < partition.cells.size(); ++cell) {
      classes.Classify(partition, cell, alive);
      for (uint32_t c = 0; c < classes.NumComponents(); ++c) {
        if (classes.CopyOf(c) == c) continue;
        for (VertexId v : classes.Members(c)) alive[v] = false;
        result.removed_vertices += classes.Members(c).size();
        ++result.reduction_operations;
        changed = true;
      }
    }
  }

  // Compact the surviving vertices into the backbone graph + partition.
  for (VertexId v = 0; v < n; ++v) {
    if (alive[v]) result.kept.push_back(v);
  }
  result.graph = InducedSubgraph(graph, result.kept);
  std::vector<VertexId> to_new(n, kInvalidVertex);
  for (size_t i = 0; i < result.kept.size(); ++i) {
    to_new[result.kept[i]] = static_cast<VertexId>(i);
  }
  std::vector<std::vector<VertexId>> new_cells;
  for (const auto& cell : partition.cells) {
    std::vector<VertexId> new_cell;
    for (VertexId v : cell) {
      if (alive[v]) new_cell.push_back(to_new[v]);
    }
    if (!new_cell.empty()) new_cells.push_back(std::move(new_cell));
  }
  result.partition =
      VertexPartition::FromCells(result.kept.size(), std::move(new_cells));
  return result;
}

}  // namespace ksym
