#include "aut/twins.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <tuple>
#include <utility>

#include "common/check.h"

namespace ksym {
namespace {

enum TwinKind : uint8_t { kNoTwin = 0, kOpenTwin = 1, kClosedTwin = 2 };

// SplitMix64 finalizer: summed over a neighbour list it gives an
// order-free neighbourhood hash, so equal neighbourhoods hash equally.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

bool SameOpenNeighborhood(const Graph& g, VertexId u, VertexId v) {
  const auto a = g.Neighbors(u);
  const auto b = g.Neighbors(v);
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

// N[u] = N[v] iff u and v are adjacent and N(u) \ {v} = N(v) \ {u}.
bool SameClosedNeighborhood(const Graph& g, VertexId u, VertexId v) {
  if (g.Degree(u) != g.Degree(v) || !g.HasEdge(u, v)) return false;
  const auto a = g.Neighbors(u);
  const auto b = g.Neighbors(v);
  size_t i = 0;
  size_t j = 0;
  while (true) {
    if (i < a.size() && a[i] == v) ++i;
    if (j < b.size() && b[j] == u) ++j;
    if (i == a.size() || j == b.size()) return i == a.size() && j == b.size();
    if (a[i] != b[j]) return false;
    ++i;
    ++j;
  }
}

// One round's twin classes: rep[v] is the minimum member of v's class
// (v itself when v has no twin), kind[v] the class's kind.
struct TwinClasses {
  std::vector<VertexId> rep;
  std::vector<uint8_t> kind;
  bool any = false;
};

// A vertex keyed for grouping: twins share (colour, neighbourhood hash).
struct Candidate {
  uint32_t color;
  uint64_t hash;
  VertexId vertex;
  auto operator<=>(const Candidate&) const = default;
};

// Finds the twin classes among `active` (ascending), which holds every
// vertex that can have a twin. Candidates are sorted by (colour,
// neighbourhood hash, id); each run of equal keys is split into exact
// classes by comparing neighbour lists, led by its smallest unassigned
// member. A vertex cannot have both an open and a closed twin, so the
// second pass only looks at vertices the first left alone.
TwinClasses FindTwinClasses(const Graph& g,
                            const std::vector<uint32_t>& colors,
                            const std::vector<VertexId>& active) {
  const size_t n = g.NumVertices();
  TwinClasses classes;
  classes.rep.resize(n);
  std::iota(classes.rep.begin(), classes.rep.end(), 0u);
  classes.kind.assign(n, kNoTwin);
  std::vector<uint64_t> open_hash(active.size(), 0);
  for (size_t i = 0; i < active.size(); ++i) {
    for (VertexId w : g.Neighbors(active[i])) open_hash[i] += Mix(w);
  }
  std::vector<Candidate> candidates;
  candidates.reserve(active.size());
  for (const TwinKind kind : {kOpenTwin, kClosedTwin}) {
    candidates.clear();
    for (size_t i = 0; i < active.size(); ++i) {
      const VertexId v = active[i];
      if (classes.kind[v] != kNoTwin) continue;
      const uint64_t hash = open_hash[i] + (kind == kClosedTwin ? Mix(v) : 0);
      candidates.push_back({colors[v], hash, v});
    }
    std::sort(candidates.begin(), candidates.end());
    for (size_t begin = 0, end = 0; begin < candidates.size(); begin = end) {
      for (end = begin + 1;
           end < candidates.size() &&
           candidates[end].color == candidates[begin].color &&
           candidates[end].hash == candidates[begin].hash;
           ++end) {
      }
      for (size_t i = begin; i + 1 < end; ++i) {
        const VertexId u = candidates[i].vertex;
        if (classes.kind[u] != kNoTwin) continue;
        for (size_t j = i + 1; j < end; ++j) {
          const VertexId v = candidates[j].vertex;
          if (classes.kind[v] != kNoTwin) continue;
          const bool twins = kind == kOpenTwin ? SameOpenNeighborhood(g, u, v)
                                               : SameClosedNeighborhood(g, u, v);
          if (!twins) continue;
          classes.rep[v] = u;
          classes.kind[v] = kind;
          classes.kind[u] = kind;
          classes.any = true;
        }
      }
    }
  }
  return classes;
}

}  // namespace

std::optional<TwinQuotient> CollapseTwins(
    const Graph& graph, const std::vector<uint32_t>& colors) {
  const size_t n = graph.NumVertices();
  KSYM_CHECK(colors.empty() || colors.size() == n);
  if (n < 2) return std::nullopt;
  std::vector<uint32_t> color =
      colors.empty() ? std::vector<uint32_t>(n, 0) : colors;
  // A pair that becomes twins in a round differed before only in vertices
  // merged by the previous round, so the next round looks only at merged
  // vertices and their neighbours.
  std::vector<VertexId> active(n);
  std::iota(active.begin(), active.end(), 0u);
  TwinClasses classes = FindTwinClasses(graph, color, active);
  if (!classes.any) return std::nullopt;

  // Current quotient vertex q's block is the list head[q] -> next[...] ->
  // ... of `length[q]` input vertices ending at tail[q].
  std::vector<VertexId> head(n);
  std::iota(head.begin(), head.end(), 0u);
  std::vector<VertexId> tail = head;
  std::vector<uint32_t> length(n, 1);
  std::vector<VertexId> next(n, kInvalidVertex);
  // (first vertex of the lower block, block length): resolved to positions
  // in `order` once the final layout is known.
  std::vector<std::pair<VertexId, uint32_t>> swaps;

  Graph collapsed;
  const Graph* current = &graph;
  while (classes.any) {
    const size_t m = current->NumVertices();

    // New ids in ascending order of class minimum, so a quotient vertex's
    // id order is its block minimum's order in every round.
    std::vector<VertexId> new_id(m);
    std::vector<VertexId> reps;
    for (VertexId v = 0; v < m; ++v) {
      if (classes.rep[v] == v) {
        new_id[v] = static_cast<VertexId>(reps.size());
        reps.push_back(v);
      } else {
        new_id[v] = new_id[classes.rep[v]];
      }
    }
    const size_t num_new = reps.size();

    // Concatenate member blocks in ascending member order; every pair of
    // consecutive members is one block swap.
    std::vector<VertexId> new_head(num_new);
    std::vector<VertexId> new_tail(num_new);
    std::vector<uint32_t> new_length(num_new);
    std::vector<uint32_t> class_size(num_new, 1);
    std::vector<VertexId> last_member(num_new);
    for (VertexId v = 0; v < m; ++v) {
      const VertexId q = new_id[v];
      if (classes.rep[v] == v) {
        new_head[q] = head[v];
        new_tail[q] = tail[v];
        new_length[q] = length[v];
      } else {
        const VertexId previous = last_member[q];
        KSYM_DCHECK(length[previous] == length[v]);
        swaps.emplace_back(head[previous], length[v]);
        next[new_tail[q]] = head[v];
        new_tail[q] = tail[v];
        new_length[q] += length[v];
        ++class_size[q];
      }
      last_member[q] = v;
    }

    // Colour: rank of (colour, kind, class size) among the distinct tuples.
    std::vector<std::tuple<uint32_t, uint8_t, uint32_t>> tuples(num_new);
    for (VertexId q = 0; q < num_new; ++q) {
      tuples[q] = {color[reps[q]], classes.kind[reps[q]], class_size[q]};
    }
    std::vector<std::tuple<uint32_t, uint8_t, uint32_t>> distinct = tuples;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    std::vector<uint32_t> new_color(num_new);
    for (VertexId q = 0; q < num_new; ++q) {
      new_color[q] = static_cast<uint32_t>(
          std::lower_bound(distinct.begin(), distinct.end(), tuples[q]) -
          distinct.begin());
    }

    // Edges between blocks are all or nothing, so the representative's
    // row names every neighbouring block.
    std::vector<EdgeIndex> offsets(num_new + 1, 0);
    std::vector<VertexId> neighbors;
    for (VertexId q = 0; q < num_new; ++q) {
      const size_t row = neighbors.size();
      for (VertexId w : current->Neighbors(reps[q])) {
        if (new_id[w] != q) neighbors.push_back(new_id[w]);
      }
      std::sort(neighbors.begin() + row, neighbors.end());
      neighbors.erase(std::unique(neighbors.begin() + row, neighbors.end()),
                      neighbors.end());
      offsets[q + 1] = neighbors.size();
    }
    collapsed = Graph::FromCsr(std::move(offsets), std::move(neighbors));
    current = &collapsed;
    std::vector<uint8_t> touched(num_new, 0);
    for (VertexId q = 0; q < num_new; ++q) {
      if (class_size[q] == 1) continue;
      touched[q] = 1;
      for (VertexId w : collapsed.Neighbors(q)) touched[w] = 1;
    }
    active.clear();
    for (VertexId q = 0; q < num_new; ++q) {
      if (touched[q]) active.push_back(q);
    }
    head = std::move(new_head);
    tail = std::move(new_tail);
    length = std::move(new_length);
    color = std::move(new_color);
    classes = FindTwinClasses(collapsed, color, active);
  }

  TwinQuotient quotient;
  quotient.graph = std::move(collapsed);
  quotient.colors = std::move(color);
  const size_t num_blocks = quotient.graph.NumVertices();
  quotient.block_start.resize(num_blocks + 1);
  quotient.order.resize(n);
  std::vector<uint32_t> position(n);
  uint32_t pos = 0;
  for (VertexId q = 0; q < num_blocks; ++q) {
    quotient.block_start[q] = pos;
    for (VertexId v = head[q]; v != kInvalidVertex; v = next[v]) {
      quotient.order[pos] = v;
      position[v] = pos++;
    }
  }
  quotient.block_start[num_blocks] = pos;
  KSYM_CHECK(pos == n);
  quotient.swaps.reserve(swaps.size());
  for (const auto& [first, block_length] : swaps) {
    quotient.swaps.push_back({position[first], block_length});
  }
  return quotient;
}

}  // namespace ksym
