// Oracle for the one L(V)-copy test (CellCopyClasses, ksym/backbone.h)
// behind backbone detection and vertex-minimal anonymization. The
// references are the two searches the classifier replaced, without its
// shortcuts: a backbone pass that extracts every component of a cell as
// its own graph, colours members through a map of outside neighbourhoods
// and tests every component against each earlier representative with its
// key by AreIsomorphic, components of at most three vertices included;
// and a minimal unit chooser that tests every component against the first
// by AreIsomorphic. Backbones and minimal releases must equal the
// references' exactly, on random graphs with their exact and TDV
// partitions and on their k = 2, 3, 5 releases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "aut/isomorphism.h"
#include "aut/orbits.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "ksym/anonymizer.h"
#include "ksym/backbone.h"
#include "ksym/minimal.h"

namespace ksym {
namespace {

constexpr uint32_t kNone = static_cast<uint32_t>(-1);

// One component of a cell's induced subgraph with its L(V) colours.
struct ReferenceComponent {
  std::vector<VertexId> members;
  Graph subgraph;
  std::vector<uint32_t> colors;

  using Key =
      std::tuple<size_t, size_t, std::vector<std::pair<uint32_t, uint32_t>>>;
  Key InvariantKey() const {
    std::vector<std::pair<uint32_t, uint32_t>> profile;
    for (VertexId i = 0; i < subgraph.NumVertices(); ++i) {
      profile.emplace_back(colors[i],
                           static_cast<uint32_t>(subgraph.Degree(i)));
    }
    std::sort(profile.begin(), profile.end());
    return {subgraph.NumVertices(), subgraph.NumEdges(), std::move(profile)};
  }
};

// The components of G[members] over live vertices, sorted by minimum
// member, with colours from a map of live outside neighbourhoods.
std::vector<ReferenceComponent> ReferenceComponents(
    const Graph& graph, const VertexPartition& partition, uint32_t cell,
    const std::vector<VertexId>& members, const std::vector<bool>& alive) {
  std::map<VertexId, uint32_t> index_of;
  for (uint32_t i = 0; i < members.size(); ++i) index_of[members[i]] = i;
  std::map<std::vector<VertexId>, uint32_t> signature_color;
  std::vector<uint32_t> color(members.size());
  for (uint32_t i = 0; i < members.size(); ++i) {
    std::vector<VertexId> external;
    for (VertexId u : graph.Neighbors(members[i])) {
      if (alive[u] && partition.cell_of[u] != cell) external.push_back(u);
    }
    color[i] = signature_color
                   .emplace(std::move(external),
                            static_cast<uint32_t>(signature_color.size()))
                   .first->second;
  }
  std::vector<uint32_t> comp(members.size(), kNone);
  uint32_t num_comps = 0;
  for (uint32_t start = 0; start < members.size(); ++start) {
    if (comp[start] != kNone) continue;
    std::vector<uint32_t> queue = {start};
    comp[start] = num_comps;
    for (size_t head = 0; head < queue.size(); ++head) {
      for (VertexId u : graph.Neighbors(members[queue[head]])) {
        const auto it = index_of.find(u);
        if (!alive[u] || it == index_of.end() || comp[it->second] != kNone) {
          continue;
        }
        comp[it->second] = num_comps;
        queue.push_back(it->second);
      }
    }
    ++num_comps;
  }
  std::vector<ReferenceComponent> components(num_comps);
  for (uint32_t i = 0; i < members.size(); ++i) {
    components[comp[i]].members.push_back(members[i]);
    components[comp[i]].colors.push_back(color[i]);
  }
  for (ReferenceComponent& component : components) {
    component.subgraph = InducedSubgraph(graph, component.members);
  }
  std::sort(components.begin(), components.end(),
            [](const ReferenceComponent& a, const ReferenceComponent& b) {
              return a.members.front() < b.members.front();
            });
  return components;
}

BackboneResult ReferenceBackbone(const Graph& graph,
                                 const VertexPartition& partition) {
  const size_t n = graph.NumVertices();
  BackboneResult result;
  std::vector<bool> alive(n, true);
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t cell = 0; cell < partition.cells.size(); ++cell) {
      std::vector<VertexId> members;
      for (VertexId v : partition.cells[cell]) {
        if (alive[v]) members.push_back(v);
      }
      if (members.size() <= 1) continue;
      const std::vector<ReferenceComponent> components =
          ReferenceComponents(graph, partition, cell, members, alive);
      std::map<ReferenceComponent::Key,
               std::vector<const ReferenceComponent*>> reps;
      for (const ReferenceComponent& component : components) {
        auto& bucket = reps[component.InvariantKey()];
        bool is_copy = false;
        for (const ReferenceComponent* rep : bucket) {
          if (AreIsomorphic(component.subgraph, rep->subgraph,
                            component.colors, rep->colors)) {
            is_copy = true;
            break;
          }
        }
        if (is_copy) {
          for (VertexId v : component.members) alive[v] = false;
          result.removed_vertices += component.members.size();
          ++result.reduction_operations;
          changed = true;
        } else {
          bucket.push_back(&component);
        }
      }
    }
  }
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

// The first component when every component copies it, else the cell.
std::vector<VertexId> ReferenceMinimalUnit(const Graph& graph,
                                           const VertexPartition& partition,
                                           uint32_t cell) {
  const std::vector<VertexId>& members = partition.cells[cell];
  const std::vector<ReferenceComponent> components = ReferenceComponents(
      graph, partition, cell, members,
      std::vector<bool>(graph.NumVertices(), true));
  for (size_t c = 1; c < components.size(); ++c) {
    if (!AreIsomorphic(components[0].subgraph, components[c].subgraph,
                       components[0].colors, components[c].colors)) {
      return members;
    }
  }
  return components[0].members;
}

void ExpectSameBackbone(const Graph& graph, const VertexPartition& partition,
                        const std::string& name) {
  const BackboneResult got = ComputeBackbone(graph, partition, nullptr);
  const BackboneResult want = ReferenceBackbone(graph, partition);
  EXPECT_EQ(got.kept, want.kept) << name;
  EXPECT_EQ(got.partition, want.partition) << name;
  EXPECT_EQ(got.removed_vertices, want.removed_vertices) << name;
  EXPECT_EQ(got.reduction_operations, want.reduction_operations) << name;
  EXPECT_TRUE(got.graph == want.graph) << name;
  // Backbone cell b is cell b of V restricted to `kept`: the exact regrow
  // reads the release's cell b for it.
  ASSERT_EQ(got.partition.cells.size(), partition.cells.size()) << name;
  for (uint32_t b = 0; b < got.partition.cells.size(); ++b) {
    for (VertexId v : got.partition.cells[b]) {
      EXPECT_EQ(partition.cell_of[got.kept[v]], b) << name;
    }
  }
}

void ExpectSameCosts(const CopyCosts& got, const CopyCosts& want,
                     const std::string& name) {
  EXPECT_EQ(got.vertices_added, want.vertices_added) << name;
  EXPECT_EQ(got.edges_added, want.edges_added) << name;
  EXPECT_EQ(got.copy_operations, want.copy_operations) << name;
  EXPECT_EQ(got.orbits_copied, want.orbits_copied) << name;
  EXPECT_EQ(got.orbits_excluded, want.orbits_excluded) << name;
  EXPECT_EQ(got.orbits_satisfied, want.orbits_satisfied) << name;
}

// The backbones of (graph, partition) and of its k = 2, 3, 5 releases,
// and the minimal releases at those k; adds the number of each compared
// to `backbones` and `minimals`.
void ExpectReferenceResults(const Graph& graph,
                            const VertexPartition& partition,
                            const std::string& name, size_t& backbones,
                            size_t& minimals) {
  ExpectSameBackbone(graph, partition, name);
  ++backbones;
  for (uint32_t k : {2u, 3u, 5u}) {
    const std::string at_k = name + " k=" + std::to_string(k);
    AnonymizationOptions options;
    options.k = k;
    const auto release = AnonymizeWithPartition(graph, partition, options);
    ASSERT_TRUE(release.ok()) << at_k;
    ExpectSameBackbone(release->graph, release->partition, at_k);
    ++backbones;

    const auto minimal = AnonymizeMinimalVertices(graph, partition, options);
    const auto reference = AnonymizeInMemory(
        graph, &partition, options,
        [&graph](const VertexPartition& initial, uint32_t cell) {
          return ReferenceMinimalUnit(graph, initial, cell);
        });
    ASSERT_TRUE(minimal.ok()) << at_k;
    ASSERT_TRUE(reference.ok()) << at_k;
    EXPECT_TRUE(minimal->graph == reference->graph) << at_k;
    EXPECT_EQ(minimal->partition, reference->partition) << at_k;
    ExpectSameCosts(*minimal, *reference, at_k);
    ++minimals;
  }
}

struct Totals {
  size_t graphs = 0;
  size_t backbones = 0;
  size_t minimals = 0;

  // The graph with its exact and its TDV partition.
  void Check(const Graph& graph, const std::string& name) {
    ExpectReferenceResults(graph,
                           ComputeAutomorphismPartition(graph, {}, nullptr),
                           name + " exact", backbones, minimals);
    ExpectReferenceResults(graph, ComputeTotalDegreePartition(graph, nullptr),
                           name + " TDV", backbones, minimals);
    ++graphs;
  }
};

TEST(CopyClassesOracleTest, RandomGraphs) {
  Rng rng(2611);
  Totals totals;
  for (int round = 0; round < 16; ++round) {
    for (size_t n : {12, 30}) {
      for (double density : {0.05, 0.15}) {
        const size_t m = static_cast<size_t>(density * n * (n - 1) / 2);
        totals.Check(ErdosRenyiGnm(n, m, rng), "ER(" + std::to_string(n) +
                                                   ", " + std::to_string(m) +
                                                   ")");
      }
      for (size_t attach : {1, 2}) {
        totals.Check(BarabasiAlbert(n, attach, rng),
                     "BA(" + std::to_string(n) + ", " +
                         std::to_string(attach) + ")");
      }
    }
    for (double beta : {0.0, 0.2}) {
      totals.Check(WattsStrogatz(24, 4, beta, rng), "WS(24, 4)");
    }
    // Disjoint unions of equal halves: every component has a copy.
    for (size_t n : {6, 10, 16}) {
      const Graph tree = BarabasiAlbert(n, 1, rng);
      totals.Check(DisjointUnion(tree, tree),
                   "BA(" + std::to_string(n) + ", 1) x2");
      const Graph sparse = ErdosRenyiGnm(n, n, rng);
      totals.Check(DisjointUnion(sparse, sparse),
                   "ER(" + std::to_string(n) + ", " + std::to_string(n) +
                       ") x2");
    }
    // Stars beside trees: pendant cells of many single-vertex components.
    for (size_t leaves : {3, 6, 9}) {
      totals.Check(DisjointUnion(MakeStar(leaves + 1),
                                 BarabasiAlbert(2 * leaves, 1, rng)),
                   "star(" + std::to_string(leaves + 1) + ") + tree");
    }
    totals.Check(DisjointUnion(MakeStar(5), MakeBalancedTree(2, 3)),
                 "star(5) + binary tree");
  }
  EXPECT_GE(totals.graphs, 300u);
  RecordProperty("backbones", static_cast<int>(totals.backbones));
  RecordProperty("minimal_releases", static_cast<int>(totals.minimals));
}

// One cell of 2 to 10 equal components of four or five vertices (paths,
// stars or cycles), each member hung off one of two anchors, which are
// cells of their own. One shape and two colours make equal keys common
// among copies and non-copies alike (the paths A-A-B-B and A-B-A-B share
// a key), so the components take the AreIsomorphic path, often against
// more than one earlier class with their key. Each graph is also tried
// with its exact and TDV partitions.
TEST(CopyClassesOracleTest, AnchoredComponentCells) {
  Rng rng(26);
  Totals totals;
  for (int trial = 0; trial < 150; ++trial) {
    const size_t count = 2 + rng.NextBounded(9);
    const VertexId size = 4 + static_cast<VertexId>(rng.NextBounded(2));
    const uint64_t shape = rng.NextBounded(3);  // Path, star, cycle.
    std::vector<std::pair<VertexId, VertexId>> edges;
    VertexId members = 0;
    for (size_t i = 0; i < count; ++i) {
      for (VertexId j = 1; j < size; ++j) {
        edges.emplace_back(members + (shape == 1 ? 0 : j - 1), members + j);
      }
      if (shape == 2) edges.emplace_back(members, members + size - 1);
      members += size;
    }
    GraphBuilder builder(members + 2);
    for (const auto& [u, v] : edges) builder.AddEdge(u, v);
    std::vector<std::vector<VertexId>> cells(1);
    for (VertexId v = 0; v < members; ++v) {
      builder.AddEdge(v, members + static_cast<VertexId>(rng.NextBounded(2)));
      cells[0].push_back(v);
    }
    cells.push_back({members});
    cells.push_back({members + 1});
    const Graph graph = builder.Build();
    const std::string name = "anchored #" + std::to_string(trial);
    ExpectReferenceResults(
        graph, VertexPartition::FromCells(members + 2, std::move(cells)),
        name + " one cell", totals.backbones, totals.minimals);
    totals.Check(graph, name);
  }
  RecordProperty("backbones", static_cast<int>(totals.backbones));
  RecordProperty("minimal_releases", static_cast<int>(totals.minimals));
}

}  // namespace
}  // namespace ksym
