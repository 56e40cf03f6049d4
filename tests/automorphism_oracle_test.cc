// Brute-force automorphism oracle, independent of the search engine: Aut(G)
// is enumerated by plain backtracking over vertex images, pruned only by
// degree, colour and adjacency to the vertices already mapped (no
// refinement). On small random graphs its orbits must equal
// ComputeAutomorphismPartition and its |Aut| must equal the Schreier–Sims
// order of the search's generators. Every k = 2 release of an input with at
// most 5 vertices must have all orbits of size >= 2, with orbits decided
// pair by pair by the same backtracking, and each released cell must lie
// inside one orbit.
//
// Twin-rich graphs (small bases whose vertices are blown up into open or
// closed twin classes, twice over, with and without a 2-colouring) check
// the twin quotient: orbits and |Aut| against brute force, |Aut| against
// Π(class size)! · |Aut(quotient)| with the classes found pair by pair, and
// canonical forms: equal exactly when a brute-force isomorphism exists,
// over random relabellings and one-edge mutants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "aut/canonical.h"
#include "aut/orbits.h"
#include "aut/search.h"
#include "aut/twins.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "ksym/anonymizer.h"
#include "perm/schreier_sims.h"

namespace ksym {
namespace {

/// Backtracking over images of `order[0]`, `order[1]`, ...: image w in
/// `to` is a candidate for vertex x of `from` when it is unused, has x's
/// degree and colour, and is adjacent to each mapped vertex's image exactly
/// when x is adjacent to that vertex. With from == to the maps are the
/// automorphisms. `visit` sees each complete map and returns false to stop
/// the search.
class BruteForceIso {
 public:
  BruteForceIso(const Graph& from, const Graph& to,
                const std::vector<uint32_t>& from_colors = {},
                const std::vector<uint32_t>& to_colors = {})
      : from_(from),
        to_(to),
        n_(from.NumVertices()),
        from_colors_(from_colors),
        to_colors_(to_colors) {}

  /// Calls `visit` on every isomorphism, vertices mapped in id order.
  void Enumerate(const std::function<bool(const std::vector<VertexId>&)>&
                     visit) {
    if (to_.NumVertices() != n_) return;
    std::vector<VertexId> order(n_);
    for (VertexId v = 0; v < n_; ++v) order[v] = v;
    Search(order, {}, visit);
  }

  /// True iff some isomorphism maps each pinned vertex to its image: the
  /// pinned vertices are mapped first, the rest in BFS order from them so
  /// adjacency prunes early.
  bool ExistsMapping(const std::vector<std::pair<VertexId, VertexId>>& pins) {
    if (to_.NumVertices() != n_) return false;
    std::vector<VertexId> order;
    std::vector<VertexId> images;
    std::vector<bool> seen(n_, false);
    for (const auto& [x, w] : pins) {
      order.push_back(x);
      images.push_back(w);
      seen[x] = true;
    }
    for (size_t head = 0; order.size() < n_; ++head) {
      if (head == order.size()) {  // Next component.
        const auto it = std::find(seen.begin(), seen.end(), false);
        const VertexId start = static_cast<VertexId>(it - seen.begin());
        seen[start] = true;
        order.push_back(start);
        continue;
      }
      for (VertexId w : from_.Neighbors(order[head])) {
        if (!seen[w]) {
          seen[w] = true;
          order.push_back(w);
        }
      }
    }
    bool found = false;
    Search(order, images, [&found](const std::vector<VertexId>&) {
      found = true;
      return false;
    });
    return found;
  }

  bool ExistsMapping(VertexId from, VertexId to) {
    return ExistsMapping({{from, to}});
  }

 private:
  uint32_t FromColor(VertexId v) const {
    return from_colors_.empty() ? 0 : from_colors_[v];
  }
  uint32_t ToColor(VertexId v) const {
    return to_colors_.empty() ? 0 : to_colors_[v];
  }

  void Search(const std::vector<VertexId>& order,
              const std::vector<VertexId>& pinned_images,
              const std::function<bool(const std::vector<VertexId>&)>& visit) {
    image_.assign(n_, kInvalidVertex);
    used_.assign(n_, false);
    stop_ = false;
    Extend(order, 0, pinned_images, visit);
  }

  void Extend(const std::vector<VertexId>& order, size_t depth,
              const std::vector<VertexId>& pinned_images,
              const std::function<bool(const std::vector<VertexId>&)>& visit) {
    if (depth == n_) {
      stop_ = !visit(image_);
      return;
    }
    const VertexId x = order[depth];
    for (VertexId w = 0; w < n_ && !stop_; ++w) {
      if (depth < pinned_images.size() && w != pinned_images[depth]) continue;
      if (used_[w] || to_.Degree(w) != from_.Degree(x) ||
          ToColor(w) != FromColor(x)) {
        continue;
      }
      bool consistent = true;
      for (size_t i = 0; i < depth && consistent; ++i) {
        const VertexId y = order[i];
        consistent = from_.HasEdge(x, y) == to_.HasEdge(w, image_[y]);
      }
      if (!consistent) continue;
      image_[x] = w;
      used_[w] = true;
      Extend(order, depth + 1, pinned_images, visit);
      used_[w] = false;
      image_[x] = kInvalidVertex;
    }
  }

  const Graph& from_;
  const Graph& to_;
  const size_t n_;
  const std::vector<uint32_t> from_colors_;
  const std::vector<uint32_t> to_colors_;
  std::vector<VertexId> image_;
  std::vector<bool> used_;
  bool stop_ = false;
};

/// 200 random graphs of 3–9 vertices: G(n, p) at several densities, and
/// the same with a pendant pair (two new leaves on one vertex), which
/// always has a non-trivial automorphism.
std::vector<Graph> SmallRandomGraphs() {
  std::vector<Graph> graphs;
  Rng rng(9001);
  const double densities[] = {0.15, 0.3, 0.5, 0.7, 0.9};
  while (graphs.size() < 200) {
    const size_t n = 3 + rng.NextBounded(7);
    const double p = densities[rng.NextBounded(5)];
    Graph base = ErdosRenyiGnp(n, p, rng);
    if (graphs.size() % 4 != 3 || n > 7) {
      graphs.push_back(std::move(base));
      continue;
    }
    GraphBuilder builder(n + 2);
    base.ForEachEdge(
        [&builder](VertexId u, VertexId v) { builder.AddEdge(u, v); });
    const VertexId anchor = static_cast<VertexId>(rng.NextBounded(n));
    builder.AddEdge(anchor, static_cast<VertexId>(n));
    builder.AddEdge(anchor, static_cast<VertexId>(n + 1));
    graphs.push_back(builder.Build());
  }
  return graphs;
}

TEST(AutomorphismOracleTest, OrbitsAndGroupOrderMatchTheSearch) {
  size_t nontrivial = 0;
  for (const Graph& graph : SmallRandomGraphs()) {
    const size_t n = graph.NumVertices();
    std::vector<VertexId> rep(n);
    for (VertexId v = 0; v < n; ++v) rep[v] = v;
    uint64_t order = 0;
    BruteForceIso(graph, graph).Enumerate([&](const std::vector<VertexId>& image) {
      ++order;
      for (VertexId v = 0; v < n; ++v) rep[v] = std::min(rep[v], image[v]);
      return true;
    });
    nontrivial += order > 1;

    EXPECT_EQ(VertexPartition::FromRepresentatives(rep),
              ComputeAutomorphismPartition(graph, {}, nullptr))
        << "n=" << n << " m=" << graph.NumEdges();
    const AutomorphismResult aut = ComputeAutomorphisms(graph, {}, nullptr);
    EXPECT_EQ(GroupOrderFromGenerators(n, ToDense(n, aut.generators)),
              static_cast<double>(order))
        << "n=" << n << " m=" << graph.NumEdges();
  }
  // The sweep must exercise real symmetry, not only rigid graphs.
  EXPECT_GT(nontrivial, 50u);
}

TEST(AutomorphismOracleTest, SmallReleasesAreTwoSymmetric) {
  size_t releases = 0;
  for (const Graph& graph : SmallRandomGraphs()) {
    if (graph.NumVertices() > 5) continue;
    AnonymizationOptions options;
    options.k = 2;
    const auto result = Anonymize(graph, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const Graph& release = result->graph;
    BruteForceIso oracle(release, release);
    // Each released cell lies inside one orbit of the release.
    for (const std::vector<VertexId>& cell : result->partition.cells) {
      for (VertexId u : cell) {
        EXPECT_TRUE(oracle.ExistsMapping(cell.front(), u))
            << cell.front() << " -> " << u;
      }
    }
    for (VertexId v = 0; v < release.NumVertices(); ++v) {
      size_t orbit = 1;
      for (VertexId u = 0; u < release.NumVertices() && orbit < 2; ++u) {
        if (u != v && oracle.ExistsMapping(v, u)) ++orbit;
      }
      EXPECT_GE(orbit, 2u) << "vertex " << v << " of a "
                           << release.NumVertices() << "-vertex release";
    }
    ++releases;
  }
  EXPECT_GT(releases, 20u);
}

/// A coloured graph; empty colours = uncoloured.
struct ColoredGraph {
  Graph graph;
  std::vector<uint32_t> colors;
};

/// |Aut| as the product, down a stabilizer chain, of the number of images
/// of vertex i under the automorphisms fixing vertices 0..i-1, each image
/// decided by one backtracking search (no enumeration of the group).
double BruteForceOrder(const ColoredGraph& g) {
  BruteForceIso oracle(g.graph, g.graph, g.colors, g.colors);
  double order = 1;
  std::vector<std::pair<VertexId, VertexId>> pins;
  for (VertexId x = 0; x < g.graph.NumVertices(); ++x) {
    size_t images = 0;
    for (VertexId w = 0; w < g.graph.NumVertices(); ++w) {
      pins.emplace_back(x, w);
      images += oracle.ExistsMapping(pins);
      pins.pop_back();
    }
    order *= static_cast<double>(images);
    pins.emplace_back(x, x);
  }
  return order;
}

/// Orbit representatives (orbit minima) by one backtracking search per
/// vertex pair.
std::vector<VertexId> BruteForceOrbitReps(const ColoredGraph& g) {
  BruteForceIso oracle(g.graph, g.graph, g.colors, g.colors);
  std::vector<VertexId> rep(g.graph.NumVertices());
  for (VertexId v = 0; v < rep.size(); ++v) {
    rep[v] = v;
    for (VertexId w = 0; w < v; ++w) {
      if (oracle.ExistsMapping(v, w)) {
        rep[v] = w;
        break;
      }
    }
  }
  return rep;
}

/// The twin quotient computed the slow way: every pair of equal-coloured
/// vertices compared directly (no hashing), classes merged into their
/// minimum member, quotient vertices coloured by the rank of (colour, kind,
/// class size), repeated until no twins are left. `twin_order` is
/// Π(class size)! over every round.
struct NaiveTwinQuotient {
  ColoredGraph quotient;
  double twin_order = 1;
};

NaiveTwinQuotient NaiveCollapseTwins(ColoredGraph g) {
  NaiveTwinQuotient result;
  if (g.colors.empty()) g.colors.assign(g.graph.NumVertices(), 0);
  while (true) {
    const Graph& graph = g.graph;
    const size_t n = graph.NumVertices();
    std::vector<VertexId> rep(n);
    std::vector<uint32_t> kind(n, 0);  // 1 = open, 2 = closed.
    for (VertexId v = 0; v < n; ++v) {
      rep[v] = v;
      for (VertexId u = 0; u < v && rep[v] == v; ++u) {
        if (g.colors[u] != g.colors[v]) continue;
        const auto nu = graph.Neighbors(u);
        const auto nv = graph.Neighbors(v);
        std::vector<VertexId> closed_u(nu.begin(), nu.end());
        std::vector<VertexId> closed_v(nv.begin(), nv.end());
        closed_u.push_back(u);
        closed_v.push_back(v);
        std::sort(closed_u.begin(), closed_u.end());
        std::sort(closed_v.begin(), closed_v.end());
        if (std::equal(nu.begin(), nu.end(), nv.begin(), nv.end())) {
          rep[v] = rep[u];
          kind[v] = kind[rep[u]] = 1;
        } else if (closed_u == closed_v) {
          rep[v] = rep[u];
          kind[v] = kind[rep[u]] = 2;
        }
      }
    }
    std::vector<uint32_t> size(n, 0);
    for (VertexId v = 0; v < n; ++v) ++size[rep[v]];
    bool any = false;
    std::vector<VertexId> id(n, kInvalidVertex);
    std::vector<VertexId> reps;
    for (VertexId v = 0; v < n; ++v) {
      if (rep[v] != v) continue;
      any |= size[v] > 1;
      for (uint32_t i = 2; i <= size[v]; ++i) result.twin_order *= i;
      id[v] = static_cast<VertexId>(reps.size());
      reps.push_back(v);
    }
    if (!any) break;
    std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> tuples;
    for (VertexId r : reps) tuples.emplace_back(g.colors[r], kind[r], size[r]);
    std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> distinct = tuples;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    GraphBuilder builder(reps.size());
    graph.ForEachEdge([&](VertexId u, VertexId v) {
      if (rep[u] != rep[v]) builder.AddEdge(id[rep[u]], id[rep[v]]);
    });
    ColoredGraph next{builder.Build(), {}};
    for (const auto& tuple : tuples) {
      next.colors.push_back(static_cast<uint32_t>(
          std::lower_bound(distinct.begin(), distinct.end(), tuple) -
          distinct.begin()));
    }
    g = std::move(next);
  }
  result.quotient = std::move(g);
  return result;
}

/// 100 twin-rich graphs of at most 11 vertices: a random base of 2-5
/// vertices in which each vertex, with probability 1/2, is blown up into an
/// open (independent) or closed (clique) twin class of 2 or 3, and then
/// each member of that class, when room is left, into a class of 2 or 3 of
/// a random kind — classes nested twice. Each graph comes uncoloured and
/// with a random 2-colouring.
std::vector<ColoredGraph> TwinRichGraphs() {
  std::vector<ColoredGraph> graphs;
  Rng rng(2023);
  while (graphs.size() < 200) {
    const size_t base = 2 + rng.NextBounded(4);
    std::vector<std::vector<bool>> adj(base, std::vector<bool>(base, false));
    for (size_t u = 0; u < base; ++u) {
      for (size_t v = u + 1; v < base; ++v) {
        adj[u][v] = adj[v][u] = rng.NextDouble() < 0.5;
      }
    }
    // Copies of v share its neighbourhood; the class is then joined
    // pairwise iff closed. Returns the class.
    auto blow_up = [&adj](size_t v, size_t size, bool closed) {
      std::vector<size_t> members{v};
      for (size_t c = 1; c < size; ++c) {
        const size_t copy = adj.size();
        for (auto& row : adj) row.push_back(false);
        adj.push_back(adj[v]);
        adj[copy].push_back(false);
        for (size_t w = 0; w < copy; ++w) adj[w][copy] = adj[copy][w];
        members.push_back(copy);
      }
      for (size_t a : members) {
        for (size_t b : members) {
          if (a != b) adj[a][b] = closed;
        }
      }
      return members;
    };
    std::vector<size_t> order(base);
    std::iota(order.begin(), order.end(), size_t{0});
    rng.Shuffle(order.begin(), order.end());
    for (size_t v : order) {
      const size_t outer = 2 + rng.NextBounded(2);
      size_t inner = 2 + rng.NextBounded(2);
      const bool outer_closed = rng.NextBounded(2) == 1;
      const bool inner_closed = rng.NextBounded(2) == 1;
      if (rng.NextBounded(2) == 0 || adj.size() + outer - 1 > 11) continue;
      if (adj.size() + outer * inner - 1 > 11) inner = 1;
      for (size_t member : blow_up(v, outer, outer_closed)) {
        blow_up(member, inner, inner_closed);
      }
    }
    GraphBuilder builder(adj.size());
    for (size_t u = 0; u < adj.size(); ++u) {
      for (size_t v = u + 1; v < adj.size(); ++v) {
        if (adj[u][v]) {
          builder.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
        }
      }
    }
    ColoredGraph plain{builder.Build(), {}};
    ColoredGraph colored{plain.graph, {}};
    for (size_t v = 0; v < adj.size(); ++v) {
      colored.colors.push_back(static_cast<uint32_t>(rng.NextBounded(2)));
    }
    graphs.push_back(std::move(plain));
    graphs.push_back(std::move(colored));
  }
  return graphs;
}

TEST(AutomorphismOracleTest, TwinRichGraphsMatchBruteForce) {
  size_t collapsed = 0;  // Graphs with a twin class.
  size_t nested = 0;     // Graphs with a class of collapsed blocks.
  for (const ColoredGraph& g : TwinRichGraphs()) {
    const size_t n = g.graph.NumVertices();
    ASSERT_LE(n, 11u);
    const std::string name = "n=" + std::to_string(n) +
                             " m=" + std::to_string(g.graph.NumEdges()) +
                             (g.colors.empty() ? "" : " coloured");
    EXPECT_EQ(VertexPartition::FromRepresentatives(BruteForceOrbitReps(g)),
              ComputeAutomorphismPartition(g.graph, g.colors, nullptr))
        << name;
    const double order = BruteForceOrder(g);
    const AutomorphismResult aut =
        ComputeAutomorphisms(g.graph, g.colors, nullptr);
    EXPECT_EQ(aut.orbit_rep, BruteForceOrbitReps(g)) << name;  // Minima.
    EXPECT_EQ(GroupOrderFromGenerators(n, ToDense(n, aut.generators)), order)
        << name;

    const NaiveTwinQuotient naive = NaiveCollapseTwins(g);
    EXPECT_EQ(order, naive.twin_order * BruteForceOrder(naive.quotient))
        << name;
    const std::optional<TwinQuotient> quotient =
        CollapseTwins(g.graph, g.colors);
    if (!quotient) {
      EXPECT_EQ(naive.quotient.graph.NumVertices(), n) << name;
      continue;
    }
    EXPECT_EQ(quotient->graph.NumVertices(),
              naive.quotient.graph.NumVertices())
        << name;
    EXPECT_LT(quotient->graph.NumVertices(), n) << name;
    EXPECT_EQ(order, naive.twin_order *
                         BruteForceOrder({quotient->graph, quotient->colors}))
        << name;
    ++collapsed;
    nested += std::any_of(
        quotient->swaps.begin(), quotient->swaps.end(),
        [](const TwinQuotient::BlockSwap& swap) { return swap.length > 1; });
  }
  // The family must exercise the quotient, nested classes included.
  EXPECT_GT(collapsed, 150u) << nested;
  EXPECT_GT(nested, 40u) << collapsed;
}

/// g relabelled by a random permutation, colours carried along.
ColoredGraph RandomRelabel(const ColoredGraph& g, Rng& rng) {
  std::vector<VertexId> perm(g.graph.NumVertices());
  std::iota(perm.begin(), perm.end(), 0u);
  rng.Shuffle(perm.begin(), perm.end());
  ColoredGraph relabeled{RelabelGraph(g.graph, perm), {}};
  if (!g.colors.empty()) {
    relabeled.colors.resize(g.colors.size());
    for (VertexId v = 0; v < perm.size(); ++v) {
      relabeled.colors[perm[v]] = g.colors[v];
    }
  }
  return relabeled;
}

/// g with one random vertex pair toggled (an edge added or removed), then
/// randomly relabelled.
ColoredGraph OneEdgeMutant(const ColoredGraph& g, Rng& rng) {
  const size_t n = g.graph.NumVertices();
  const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
  VertexId v = static_cast<VertexId>(rng.NextBounded(n - 1));
  if (v >= u) ++v;
  GraphBuilder builder(n);
  g.graph.ForEachEdge([&](VertexId a, VertexId b) {
    if (!((a == u && b == v) || (a == v && b == u))) builder.AddEdge(a, b);
  });
  if (!g.graph.HasEdge(u, v)) builder.AddEdge(u, v);
  return RandomRelabel({builder.Build(), g.colors}, rng);
}

TEST(AutomorphismOracleTest, TwinRichCanonicalFormsMatchBruteForce) {
  Rng rng(77);
  size_t isomorphic_mutants = 0;
  size_t distinct_mutants = 0;
  for (const ColoredGraph& g : TwinRichGraphs()) {
    const CanonicalForm form = ComputeCanonicalForm(g.graph, g.colors);
    const ColoredGraph relabeled = RandomRelabel(g, rng);
    EXPECT_TRUE(form ==
                ComputeCanonicalForm(relabeled.graph, relabeled.colors));

    const ColoredGraph a = OneEdgeMutant(g, rng);
    const ColoredGraph b = OneEdgeMutant(g, rng);
    const CanonicalForm form_a = ComputeCanonicalForm(a.graph, a.colors);
    const CanonicalForm form_b = ComputeCanonicalForm(b.graph, b.colors);
    const bool g_a = BruteForceIso(g.graph, a.graph, g.colors, a.colors)
                         .ExistsMapping({});
    const bool a_b = BruteForceIso(a.graph, b.graph, a.colors, b.colors)
                         .ExistsMapping({});
    EXPECT_EQ(form == form_a, g_a);
    EXPECT_EQ(form_a == form_b, a_b);
    isomorphic_mutants += a_b;
    distinct_mutants += !a_b;
  }
  // Both directions of "equal forms <=> isomorphic" must be exercised.
  EXPECT_GT(isomorphic_mutants, 30u);
  EXPECT_GT(distinct_mutants, 30u);
}

}  // namespace
}  // namespace ksym
