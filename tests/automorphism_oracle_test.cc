// Brute-force automorphism oracle, independent of the search engine: Aut(G)
// is enumerated by plain backtracking over vertex images, pruned only by
// degree and by adjacency to the vertices already mapped (no refinement).
// On small random graphs its orbits must equal ComputeAutomorphismPartition
// and its |Aut| must equal the Schreier–Sims order of the search's
// generators. Every k = 2 release of an input with at most 5 vertices must
// have all orbits of size >= 2, with orbits decided pair by pair by the
// same backtracking, and each released cell must lie inside one orbit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "aut/orbits.h"
#include "aut/search.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "ksym/anonymizer.h"
#include "perm/schreier_sims.h"

namespace ksym {
namespace {

/// Backtracking over images of `order[0]`, `order[1]`, ...: image w is a
/// candidate for vertex x when it is unused, has x's degree, and is
/// adjacent to each mapped vertex's image exactly when x is adjacent to
/// that vertex. `visit` sees each complete automorphism and returns false
/// to stop the search.
class BruteForceAut {
 public:
  explicit BruteForceAut(const Graph& graph)
      : graph_(graph), n_(graph.NumVertices()) {}

  /// Calls `visit` on every automorphism, vertices mapped in id order.
  void Enumerate(const std::function<bool(const std::vector<VertexId>&)>&
                     visit) {
    std::vector<VertexId> order(n_);
    for (VertexId v = 0; v < n_; ++v) order[v] = v;
    Search(order, {}, visit);
  }

  /// True iff some automorphism maps `from` to `to`: `from` is mapped
  /// first (pinned to `to`), the rest in BFS order from it so adjacency
  /// prunes early.
  bool ExistsMapping(VertexId from, VertexId to) {
    std::vector<VertexId> order{from};
    std::vector<bool> seen(n_, false);
    seen[from] = true;
    for (size_t head = 0; order.size() < n_; ++head) {
      if (head == order.size()) {  // Next component.
        const auto it = std::find(seen.begin(), seen.end(), false);
        const VertexId start = static_cast<VertexId>(it - seen.begin());
        seen[start] = true;
        order.push_back(start);
        continue;
      }
      for (VertexId w : graph_.Neighbors(order[head])) {
        if (!seen[w]) {
          seen[w] = true;
          order.push_back(w);
        }
      }
    }
    bool found = false;
    Search(order, to, [&found](const std::vector<VertexId>&) {
      found = true;
      return false;
    });
    return found;
  }

 private:
  void Search(const std::vector<VertexId>& order,
              std::optional<VertexId> first_image,
              const std::function<bool(const std::vector<VertexId>&)>& visit) {
    image_.assign(n_, kInvalidVertex);
    used_.assign(n_, false);
    stop_ = false;
    Extend(order, 0, first_image, visit);
  }

  void Extend(const std::vector<VertexId>& order, size_t depth,
              std::optional<VertexId> first_image,
              const std::function<bool(const std::vector<VertexId>&)>& visit) {
    if (depth == n_) {
      stop_ = !visit(image_);
      return;
    }
    const VertexId x = order[depth];
    for (VertexId w = 0; w < n_ && !stop_; ++w) {
      if (depth == 0 && first_image.has_value() && w != *first_image) continue;
      if (used_[w] || graph_.Degree(w) != graph_.Degree(x)) continue;
      bool consistent = true;
      for (size_t i = 0; i < depth && consistent; ++i) {
        const VertexId y = order[i];
        consistent = graph_.HasEdge(x, y) == graph_.HasEdge(w, image_[y]);
      }
      if (!consistent) continue;
      image_[x] = w;
      used_[w] = true;
      Extend(order, depth + 1, first_image, visit);
      used_[w] = false;
      image_[x] = kInvalidVertex;
    }
  }

  const Graph& graph_;
  const size_t n_;
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
    BruteForceAut(graph).Enumerate([&](const std::vector<VertexId>& image) {
      ++order;
      for (VertexId v = 0; v < n; ++v) rep[v] = std::min(rep[v], image[v]);
      return true;
    });
    nontrivial += order > 1;

    EXPECT_EQ(VertexPartition::FromRepresentatives(rep),
              ComputeAutomorphismPartition(graph, {}, nullptr))
        << "n=" << n << " m=" << graph.NumEdges();
    const AutomorphismResult aut = ComputeAutomorphisms(graph, {}, nullptr);
    EXPECT_EQ(GroupOrderFromGenerators(n, aut.generators),
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
    BruteForceAut oracle(release);
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

}  // namespace
}  // namespace ksym
