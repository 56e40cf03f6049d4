#include "aut/search.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "aut/refinement.h"
#include "aut/twins.h"
#include "perm/union_find.h"

namespace ksym {
namespace {

class AutSearcher {
 public:
  AutSearcher(const Graph& graph, const std::vector<uint32_t>& colors,
              const ExecutionContext* context)
      : graph_(graph),
        n_(graph.NumVertices()),
        colors_(colors),
        refiner_(graph, context),
        global_orbits_(n_) {}

  AutomorphismResult Run() {
    if (n_ > 0) {
      OrderedPartition root(n_, colors_);
      refiner_.RefineAll(root);
      Explore(root, /*depth=*/0, /*on_first_path=*/true);
    }

    AutomorphismResult result;
    result.generators = std::move(generators_);
    result.nodes = nodes_;
    result.orbit_rep.resize(n_);
    std::vector<VertexId> min_of_root(n_, kInvalidVertex);
    for (VertexId v = 0; v < n_; ++v) {
      const uint32_t r = global_orbits_.Find(v);
      if (min_of_root[r] == kInvalidVertex) min_of_root[r] = v;
    }
    for (VertexId v = 0; v < n_; ++v) {
      result.orbit_rep[v] = min_of_root[global_orbits_.Find(v)];
    }
    return result;
  }

 private:
  enum class Outcome { kContinue, kAutFound };

  // Explores the node whose (equitable) partition is the current state of
  // `p`; `p` is restored to that state before returning.
  //
  // Sibling orbit pruning runs only at nodes on the first (leftmost) path,
  // where it is exact and free: every generator discovered so far was found
  // at a leaf sharing this node's branch prefix with the first path, hence
  // fixes the prefix pointwise, so the *global* orbit structure is exactly
  // the pruning relation. Off-path subtrees instead rely on invariant
  // pruning plus backjumping (an off-path subtree is abandoned as soon as
  // it produces one automorphism).
  Outcome Explore(OrderedPartition& p, size_t depth, bool on_first_path) {
    ++nodes_;
    if (p.IsDiscrete()) return HandleLeaf(p);

    const uint32_t target = p.TargetCell();

    // On the first path children are visited in sorted order (deterministic
    // spine) with orbit pruning. Off the first path the visit order is
    // irrelevant — the subtree is abandoned after its first automorphism —
    // so candidates are fetched lazily from the (mutating) cell segment,
    // avoiding a per-node copy+sort.
    std::vector<VertexId> children;
    if (on_first_path) {
      const auto cell_span = p.CellAt(target);
      children.assign(cell_span.begin(), cell_span.end());
      std::sort(children.begin(), children.end());
    }
    std::vector<VertexId> tried;
    bool is_leftmost_child = true;

    size_t cursor = 0;
    while (true) {
      VertexId v = kInvalidVertex;
      if (on_first_path) {
        // Next sorted child not redundant under the discovered group.
        for (; cursor < children.size(); ++cursor) {
          bool redundant = false;
          for (VertexId w : tried) {
            if (global_orbits_.Same(children[cursor], w)) {
              redundant = true;
              break;
            }
          }
          if (!redundant) break;
        }
        if (cursor == children.size()) break;
        v = children[cursor++];
      } else {
        // First segment element not tried yet.
        for (VertexId candidate : p.CellAt(target)) {
          if (std::find(tried.begin(), tried.end(), candidate) ==
              tried.end()) {
            v = candidate;
            break;
          }
        }
        if (v == kInvalidVertex) break;
      }
      tried.push_back(v);

      const size_t mark = p.JournalMark();
      const uint32_t singleton = p.Individualize(v);
      const uint64_t inv = refiner_.RefineFrom(p, singleton);

      bool pruned = false;
      if (!have_first_) {
        // Building the leftmost spine: record its invariant trace.
        KSYM_DCHECK(first_inv_.size() == depth);
        first_inv_.push_back(inv);
      } else if (depth >= first_inv_.size() || inv != first_inv_[depth]) {
        // A leaf equal to the first leaf must share the first path's
        // invariant trace; anything else is a dead subtree.
        pruned = true;
      }

      Outcome outcome = Outcome::kContinue;
      if (!pruned) {
        outcome = Explore(p, depth + 1, on_first_path && is_leftmost_child);
      }
      p.RevertTo(mark);
      is_leftmost_child = false;
      if (outcome == Outcome::kAutFound && !on_first_path) {
        // Backjump: this subtree is an automorphic image of an explored
        // one; its remaining branches yield nothing new.
        return Outcome::kAutFound;
      }
    }
    return Outcome::kContinue;
  }

  // A leaf is a discrete partition, i.e. a labelling. With lab and first
  // the labellings (vertex -> position) of this leaf and the first one,
  // g = lab ∘ first⁻¹ sends the vertex at each position of this leaf to the
  // vertex at the same position of the first leaf, and the two leaves give
  // the same labelled graph iff g is an automorphism. g is tested on the
  // graph itself: arcs between fixed points map to themselves, so it is an
  // automorphism iff every arc at a moved point maps to an arc (a bijection
  // that maps E into E maps it onto E). Degrees are compared first, as a
  // cheap filter.
  Outcome HandleLeaf(const OrderedPartition& p) {
    const std::span<const VertexId> leaf = p.Elements();
    if (!have_first_) {
      have_first_ = true;
      first_leaf_.assign(leaf.begin(), leaf.end());
      return Outcome::kContinue;
    }
    moves_.clear();
    for (uint32_t pos = 0; pos < n_; ++pos) {
      if (leaf[pos] != first_leaf_[pos]) {
        moves_.emplace_back(leaf[pos], first_leaf_[pos]);
      }
    }
    if (moves_.empty()) return Outcome::kContinue;
    for (const auto& [x, image] : moves_) {
      if (graph_.Degree(x) != graph_.Degree(image)) return Outcome::kContinue;
    }
    for (const auto& [x, image] : moves_) {
      for (VertexId y : graph_.Neighbors(x)) {
        if (!graph_.HasEdge(image, first_leaf_[p.PositionOf(y)])) {
          return Outcome::kContinue;
        }
      }
    }
    for (const auto& [x, image] : moves_) global_orbits_.Union(x, image);
    generators_.emplace_back(moves_);
    return Outcome::kAutFound;
  }

  const Graph& graph_;
  const VertexId n_;
  const std::vector<uint32_t>& colors_;
  Refiner refiner_;

  bool have_first_ = false;
  std::vector<uint64_t> first_inv_;  // Invariant trace of the leftmost path.
  std::vector<VertexId> first_leaf_;  // Vertex at each position.
  // Scratch: the (point, image) pairs of the current leaf's g.
  std::vector<std::pair<VertexId, VertexId>> moves_;

  std::vector<SparsePermutation> generators_;
  UnionFind global_orbits_;
  uint64_t nodes_ = 0;
};

// Lifts the quotient's automorphisms to the input: the twin block swaps,
// then each quotient generator mapped block to block, position by position;
// every input orbit is the union of the blocks of one quotient orbit.
AutomorphismResult LiftToBlocks(const TwinQuotient& quotient,
                                AutomorphismResult found) {
  AutomorphismResult result;
  result.nodes = found.nodes;
  result.generators.reserve(quotient.swaps.size() + found.generators.size());
  std::vector<std::pair<VertexId, VertexId>> moves;
  for (const TwinQuotient::BlockSwap& swap : quotient.swaps) {
    moves.clear();
    for (uint32_t j = 0; j < swap.length; ++j) {
      const VertexId a = quotient.order[swap.start + j];
      const VertexId b = quotient.order[swap.start + swap.length + j];
      moves.emplace_back(a, b);
      moves.emplace_back(b, a);
    }
    result.generators.emplace_back(moves);
  }
  for (const SparsePermutation& g : found.generators) {
    moves.clear();
    for (const auto& [q, image] : g.Moves()) {
      const auto from = quotient.Block(q);
      const auto to = quotient.Block(image);
      for (size_t j = 0; j < from.size(); ++j) {
        moves.emplace_back(from[j], to[j]);
      }
    }
    result.generators.emplace_back(moves);
  }
  // A block starts with its minimum (members are concatenated in id order)
  // and quotient ids ascend with block minima, so the block of the quotient
  // orbit's representative starts with the input orbit's minimum.
  result.orbit_rep.resize(quotient.order.size());
  for (VertexId q = 0; q < quotient.NumBlocks(); ++q) {
    const VertexId rep = quotient.Block(found.orbit_rep[q]).front();
    for (VertexId v : quotient.Block(q)) result.orbit_rep[v] = rep;
  }
  return result;
}

}  // namespace

AutomorphismResult ComputeAutomorphisms(const Graph& graph,
                                        const std::vector<uint32_t>& colors,
                                        const ExecutionContext* context) {
  KSYM_CHECK(colors.empty() || colors.size() == graph.NumVertices());
  const std::optional<TwinQuotient> quotient = CollapseTwins(graph, colors);
  if (!quotient) return AutSearcher(graph, colors, context).Run();
  return LiftToBlocks(
      *quotient,
      AutSearcher(quotient->graph, quotient->colors, context).Run());
}

}  // namespace ksym
