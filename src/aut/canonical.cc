#include "aut/canonical.h"

#include <algorithm>
#include <optional>

#include "aut/refinement.h"
#include "aut/twins.h"
#include "perm/union_find.h"

namespace ksym {
namespace {

// Writes the relabelled, normalized, sorted edge list of `graph` under the
// labelling `label_of` (vertex -> position) into `edges` (reused across
// leaves).
template <typename LabelOf>
void RelabeledEdgesInto(const Graph& graph, const LabelOf& label_of,
                        std::vector<std::pair<VertexId, VertexId>>& edges) {
  edges.clear();
  edges.reserve(graph.NumEdges());
  graph.ForEachEdge([&label_of, &edges](VertexId u, VertexId v) {
    const VertexId lu = label_of(u);
    const VertexId lv = label_of(v);
    edges.emplace_back(std::min(lu, lv), std::max(lu, lv));
  });
  std::sort(edges.begin(), edges.end());
}

// Explores the full individualization-refinement tree keeping the leaf with
// the lexicographically greatest (invariant trace, relabelled edge list).
// Automorphisms discovered on the way (leaves equal to the first or best
// leaf) drive sibling orbit pruning. A leaf is kept as the vertex at each
// position of its labelling.
class CanonSearcher {
 public:
  CanonSearcher(const Graph& graph, const std::vector<uint32_t>& colors)
      : graph_(graph), n_(graph.NumVertices()), colors_(colors),
        refiner_(graph) {}

  // The canonical leaf: the vertex at each canonical position.
  std::vector<VertexId> Run() {
    if (n_ == 0) return {};
    OrderedPartition root(n_, colors_);
    refiner_.RefineAll(root);
    Explore(root, 0);
    KSYM_CHECK(have_best_);
    return std::move(best_leaf_);
  }

 private:
  // Compares the current path trace (length depth+1, last entry `inv`)
  // against the best leaf's trace at the same position.
  // Returns -1 / 0 / +1.
  int CompareToBest(size_t depth, uint64_t inv) const {
    if (!have_best_) return +1;
    if (depth >= best_inv_.size()) return +1;  // Longer prefix: explore.
    if (inv < best_inv_[depth]) return -1;
    if (inv > best_inv_[depth]) return +1;
    return 0;
  }

  void Explore(OrderedPartition& p, size_t depth) {
    if (p.IsDiscrete()) {
      HandleLeaf(p, depth);
      return;
    }
    const uint32_t target = p.TargetCell();
    const auto cell_span = p.CellAt(target);
    std::vector<VertexId> children(cell_span.begin(), cell_span.end());
    std::sort(children.begin(), children.end());

    UnionFind local(n_);
    size_t gens_applied = 0;
    std::vector<VertexId> tried;

    for (VertexId v : children) {
      for (; gens_applied < generators_.size(); ++gens_applied) {
        const SparsePermutation& g = generators_[gens_applied];
        if (!FixesPrefix(g, depth)) continue;
        for (const auto& [x, image] : g.Moves()) local.Union(x, image);
      }
      bool redundant = false;
      for (VertexId w : tried) {
        if (local.Same(v, w)) {
          redundant = true;
          break;
        }
      }
      if (redundant) continue;
      tried.push_back(v);

      const size_t mark = p.JournalMark();
      const uint32_t singleton = p.Individualize(v);
      const uint64_t inv = refiner_.RefineFrom(p, singleton);

      const bool eq_first = have_first_ && depth < first_inv_.size() &&
                            inv == first_inv_[depth];
      const int cmp_best = CompareToBest(depth, inv);
      // A strictly-worse prefix can never become the canonical leaf; it is
      // only worth visiting if it can still reproduce the first leaf (and
      // thus yield an automorphism for pruning).
      if (cmp_best < 0 && !eq_first) {
        p.RevertTo(mark);
        continue;
      }
      if (!have_first_) {
        KSYM_DCHECK(first_inv_.size() == depth);
        first_inv_.push_back(inv);
      }

      if (path_.size() <= depth) {
        path_.resize(depth + 1);
        path_inv_.resize(depth + 1);
      }
      path_[depth] = v;
      path_inv_[depth] = inv;

      Explore(p, depth + 1);
      p.RevertTo(mark);
    }
  }

  void HandleLeaf(const OrderedPartition& p, size_t depth) {
    const std::span<const VertexId> leaf = p.Elements();
    std::vector<std::pair<VertexId, VertexId>>& edges = leaf_edges_;
    RelabeledEdgesInto(
        graph_, [&p](VertexId v) { return p.PositionOf(v); }, edges);

    if (!have_first_) {
      have_first_ = true;
      first_leaf_.assign(leaf.begin(), leaf.end());
      first_edges_ = edges;
    } else if (edges == first_edges_ &&
               TraceEquals(first_inv_, depth)) {
      AddAutomorphism(leaf, first_leaf_);
    }

    // Canonical bookkeeping: lexicographic max of (trace, edges).
    const int cmp = CompareTraceToBest(depth, edges);
    if (cmp > 0) {
      have_best_ = true;
      best_inv_.assign(path_inv_.begin(), path_inv_.begin() + depth);
      best_leaf_.assign(leaf.begin(), leaf.end());
      std::swap(best_edges_, edges);
    } else if (cmp == 0) {
      AddAutomorphism(leaf, best_leaf_);
    }
  }

  bool TraceEquals(const std::vector<uint64_t>& reference,
                   size_t depth) const {
    if (reference.size() != depth) return false;
    return std::equal(reference.begin(), reference.end(), path_inv_.begin());
  }

  // Compares (path trace of length depth, edges) against the best leaf.
  int CompareTraceToBest(
      size_t depth,
      const std::vector<std::pair<VertexId, VertexId>>& edges) const {
    if (!have_best_) return +1;
    for (size_t i = 0; i < depth && i < best_inv_.size(); ++i) {
      if (path_inv_[i] < best_inv_[i]) return -1;
      if (path_inv_[i] > best_inv_[i]) return +1;
    }
    if (depth != best_inv_.size()) {
      return depth < best_inv_.size() ? -1 : +1;
    }
    if (edges < best_edges_) return -1;
    if (edges > best_edges_) return +1;
    return 0;
  }

  // Stores g = lab ∘ ref⁻¹, which sends the vertex at each position of
  // `leaf` to the vertex at the same position of `ref`, by its moved points.
  void AddAutomorphism(std::span<const VertexId> leaf,
                       const std::vector<VertexId>& ref) {
    std::vector<std::pair<VertexId, VertexId>> moves;
    for (uint32_t pos = 0; pos < n_; ++pos) {
      if (leaf[pos] != ref[pos]) moves.emplace_back(leaf[pos], ref[pos]);
    }
    if (!moves.empty()) generators_.emplace_back(std::move(moves));
  }

  bool FixesPrefix(const SparsePermutation& g, size_t depth) const {
    for (size_t i = 0; i < depth; ++i) {
      if (g.Image(path_[i]) != path_[i]) return false;
    }
    return true;
  }

  const Graph& graph_;
  const VertexId n_;
  const std::vector<uint32_t>& colors_;
  Refiner refiner_;

  std::vector<VertexId> path_;
  std::vector<uint64_t> path_inv_;

  bool have_first_ = false;
  std::vector<uint64_t> first_inv_;
  std::vector<VertexId> first_leaf_;
  std::vector<std::pair<VertexId, VertexId>> first_edges_;

  bool have_best_ = false;
  std::vector<uint64_t> best_inv_;
  std::vector<VertexId> best_leaf_;
  std::vector<std::pair<VertexId, VertexId>> best_edges_;

  std::vector<SparsePermutation> generators_;
  // Scratch: relabelled edge list of the current leaf, reused across leaves.
  std::vector<std::pair<VertexId, VertexId>> leaf_edges_;
};

}  // namespace

CanonicalForm ComputeCanonicalForm(const Graph& graph,
                                   const std::vector<uint32_t>& colors) {
  KSYM_CHECK(colors.empty() || colors.size() == graph.NumVertices());
  std::vector<VertexId> position(graph.NumVertices());
  uint32_t next = 0;
  const std::optional<TwinQuotient> quotient = CollapseTwins(graph, colors);
  if (!quotient) {
    for (VertexId v : CanonSearcher(graph, colors).Run()) position[v] = next++;
  } else {
    // Lay the blocks out in the canonical order of their quotient vertices,
    // each block in nested order: equal quotient colours mean position-wise
    // isomorphic blocks, so the expanded labelling is canonical too.
    for (VertexId q : CanonSearcher(quotient->graph, quotient->colors).Run()) {
      for (VertexId v : quotient->Block(q)) position[v] = next++;
    }
  }
  CanonicalForm form;
  form.labeling = Permutation(std::move(position));
  RelabeledEdgesInto(
      graph, [&form](VertexId v) { return form.labeling.Image(v); },
      form.edges);
  if (!colors.empty()) {
    form.colors.resize(graph.NumVertices());
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      form.colors[form.labeling.Image(v)] = colors[v];
    }
  }
  return form;
}

}  // namespace ksym
