// Tests for the orbit copying operation (Definition 3, Lemmas 1-3), and a
// reference Ocp over a plain edge set that shares no code with OrbitCopy:
// random copy sequences must give the same copy ids, tracked cells and
// released graph over an in-memory base and over 1- and 3-shard bases.

#include "ksym/orbit_copy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "aut/isomorphism.h"
#include "aut/orbits.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "ksym/verifier.h"
#include "shard/partitioner.h"
#include "shard/sharded_graph.h"

namespace ksym {
namespace {

// One Ocp sequence over an in-memory base.
struct Copier {
  Copier(const Graph& graph, const VertexPartition& initial)
      : base(graph), delta(graph.NumVertices()), partition(initial) {}

  std::vector<VertexId> Copy(uint32_t cell, std::span<const VertexId> unit) {
    return OrbitCopy(base, delta, partition, cell, unit);
  }
  Graph Release() const { return ReleasedGraph(base, delta); }

  const Graph& base;
  ReleaseDelta delta;
  TrackedPartition partition;
};

// The running example of the paper's Figure 3(a): orbits
// V1 = {v1,v2}, V2 = {v3}, V3 = {v4,v5}, V4 = {v6,v7}, V5 = {v8}
// (1-indexed); 0-indexed: {0,1}, {2}, {3,4}, {5,6}, {7}.
Graph Figure3Graph() {
  GraphBuilder b(8);
  b.AddEdge(0, 2);  // v1-v3
  b.AddEdge(1, 2);  // v2-v3
  b.AddEdge(2, 3);  // v3-v4
  b.AddEdge(2, 4);  // v3-v5
  b.AddEdge(3, 5);  // v4-v6
  b.AddEdge(4, 6);  // v5-v7
  b.AddEdge(5, 7);  // v6-v8
  b.AddEdge(6, 7);  // v7-v8
  b.AddEdge(3, 4);  // v4-v5 (the orbit has an internal edge)
  return b.Build();
}

TEST(OrbitCopyTest, Figure3OrbitsAreAsInThePaper) {
  const VertexPartition orbits = ComputeAutomorphismPartition(Figure3Graph(), {}, nullptr);
  ASSERT_EQ(orbits.NumCells(), 5u);
  EXPECT_EQ(orbits.cells[0], (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(orbits.cells[1], (std::vector<VertexId>{2}));
  EXPECT_EQ(orbits.cells[2], (std::vector<VertexId>{3, 4}));
  EXPECT_EQ(orbits.cells[3], (std::vector<VertexId>{5, 6}));
  EXPECT_EQ(orbits.cells[4], (std::vector<VertexId>{7}));
}

TEST(OrbitCopyTest, CopyingV3MatchesFigure3b) {
  // Copying V3 = {v4, v5} introduces v4', v5' with edges to v3 (external),
  // v6/v7 (external) and the mirrored internal edge v4'-v5'.
  const Graph g = Figure3Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  Copier copier(g, orbits);
  const auto copies = copier.Copy(2, orbits.cells[2]);
  ASSERT_EQ(copies.size(), 2u);
  const VertexId v4c = copies[0];
  const VertexId v5c = copies[1];
  const Graph result = copier.Release();
  EXPECT_EQ(result.NumVertices(), 10u);
  // External adjacency preserved exactly (rule 1).
  EXPECT_TRUE(result.HasEdge(v4c, 2));
  EXPECT_TRUE(result.HasEdge(v5c, 2));
  EXPECT_TRUE(result.HasEdge(v4c, 5));
  EXPECT_TRUE(result.HasEdge(v5c, 6));
  // Internal edge mirrored between copies (rule 2).
  EXPECT_TRUE(result.HasEdge(v4c, v5c));
  // No edges between copies and originals of the cell.
  EXPECT_FALSE(result.HasEdge(v4c, 3));
  EXPECT_FALSE(result.HasEdge(v4c, 4));
  EXPECT_FALSE(result.HasEdge(v5c, 3));
  EXPECT_FALSE(result.HasEdge(v5c, 4));
  // 4 vertices in the augmented cell.
  EXPECT_EQ(copier.partition.Cell(2).size(), 4u);
}

TEST(OrbitCopyTest, ResultIsSubAutomorphismPartition) {
  // Lemma 1: after one copy, the augmented partition is a (cell-wise)
  // sub-automorphism partition of the new graph.
  const Graph g = Figure3Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  for (uint32_t cell = 0; cell < orbits.NumCells(); ++cell) {
    Copier copier(g, orbits);
    copier.Copy(cell, orbits.cells[cell]);
    EXPECT_TRUE(IsCellwiseSubAutomorphismPartition(
        copier.Release(), copier.partition.ToVertexPartition()))
        << "cell " << cell;
  }
}

TEST(OrbitCopyTest, RepeatedCopiesKeepProperty) {
  // Lemma 2: N copies of the same cell.
  const Graph g = Figure3Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  Copier copier(g, orbits);
  for (int rep = 0; rep < 3; ++rep) {
    copier.Copy(0, orbits.cells[0]);
  }
  EXPECT_EQ(copier.partition.Cell(0).size(), 8u);
  EXPECT_TRUE(IsCellwiseSubAutomorphismPartition(
      copier.Release(), copier.partition.ToVertexPartition()));
}

TEST(OrbitCopyTest, OrderIndependenceUpToIsomorphism) {
  // Lemma 3: applying the same multiset of copy operations in different
  // orders yields isomorphic graphs.
  const Graph g = Figure3Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);

  Copier c1(g, orbits);
  c1.Copy(0, orbits.cells[0]);
  c1.Copy(2, orbits.cells[2]);
  c1.Copy(4, orbits.cells[4]);

  Copier c2(g, orbits);
  c2.Copy(4, orbits.cells[4]);
  c2.Copy(2, orbits.cells[2]);
  c2.Copy(0, orbits.cells[0]);

  EXPECT_TRUE(AreIsomorphic(c1.Release(), c2.Release()));
}

TEST(OrbitCopyTest, CopyCountsDegreesPreserved) {
  // Every copy has the same degree as its original.
  const Graph g = Figure3Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  Copier copier(g, orbits);
  const auto copies = copier.Copy(2, orbits.cells[2]);
  const Graph result = copier.Release();
  for (size_t i = 0; i < copies.size(); ++i) {
    EXPECT_EQ(result.Degree(copies[i]), g.Degree(orbits.cells[2][i]));
  }
}

TEST(OrbitCopyTest, SingletonCellCopy) {
  // Copying a singleton orbit duplicates the vertex with its exact
  // neighbourhood (the star-leaf case).
  const Graph star = MakeStar(4);  // Hub 0; leaves 1, 2, 3.
  const VertexPartition orbits = ComputeAutomorphismPartition(star, {}, nullptr);
  // Orbits: {0}, {1,2,3}.
  Copier copier(star, orbits);
  const uint32_t hub_cell = orbits.cell_of[0];
  const auto copies = copier.Copy(hub_cell, orbits.cells[hub_cell]);
  const Graph result = copier.Release();
  ASSERT_EQ(copies.size(), 1u);
  EXPECT_EQ(result.Degree(copies[0]), 3u);  // Mirrors the hub.
  for (VertexId leaf : {1u, 2u, 3u}) {
    EXPECT_TRUE(result.HasEdge(copies[0], leaf));
  }
}

TEST(TrackedPartitionTest, ProvenanceCollapsesToOriginals) {
  const Graph g = MakeStar(3);
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  Copier copier(g, orbits);
  const TrackedPartition& partition = copier.partition;
  const uint32_t leaf_cell = orbits.cell_of[1];
  const auto first = copier.Copy(leaf_cell, orbits.cells[leaf_cell]);
  // Copy the copies' cell again using originals as unit.
  const auto second = copier.Copy(leaf_cell, orbits.cells[leaf_cell]);
  for (VertexId v : first) {
    EXPECT_FALSE(partition.IsOriginal(v));
    EXPECT_TRUE(partition.IsOriginal(partition.OriginalOf(v)));
  }
  for (VertexId v : second) {
    EXPECT_TRUE(partition.IsOriginal(partition.OriginalOf(v)));
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_TRUE(partition.IsOriginal(v));
  }
}


// Definition 3 over a plain edge set, written without OrbitCopy, the
// release delta or the row emitter: new ids are appended, rules 1 and 2 are
// applied to the current edge set, and the graph is built by GraphBuilder.
class ReferenceOcp {
 public:
  ReferenceOcp(const Graph& graph, const VertexPartition& initial)
      : num_vertices_(graph.NumVertices()),
        cell_of_(initial.cell_of),
        cells_(initial.cells) {
    graph.ForEachEdge([this](VertexId u, VertexId v) { edges_.insert({u, v}); });
  }

  std::vector<VertexId> Copy(uint32_t cell,
                             const std::vector<VertexId>& unit) {
    std::map<VertexId, VertexId> copy_of;
    std::vector<VertexId> copies;
    for (VertexId v : unit) {
      const VertexId v_copy = static_cast<VertexId>(num_vertices_++);
      copy_of[v] = v_copy;
      cell_of_.push_back(cell);
      cells_[cell].push_back(v_copy);
      copies.push_back(v_copy);
    }
    std::vector<std::pair<VertexId, VertexId>> added;
    for (const auto& [a, b] : edges_) {
      for (const auto& [v, u] : {std::pair(a, b), std::pair(b, a)}) {
        const auto v_copy = copy_of.find(v);
        if (v_copy == copy_of.end()) continue;
        if (cell_of_[u] != cell) {
          added.emplace_back(u, v_copy->second);  // Rule 1.
        } else if (copy_of.count(u) != 0) {
          added.emplace_back(copy_of[u], v_copy->second);  // Rule 2.
        }
      }
    }
    for (const auto& [u, v] : added) {
      edges_.insert({std::min(u, v), std::max(u, v)});
    }
    return copies;
  }

  Graph Build() const {
    GraphBuilder builder(num_vertices_);
    for (const auto& [u, v] : edges_) builder.AddEdge(u, v);
    return builder.Build();
  }

  const std::vector<std::vector<VertexId>>& cells() const { return cells_; }

 private:
  size_t num_vertices_;
  std::set<std::pair<VertexId, VertexId>> edges_;  // u < v.
  std::vector<uint32_t> cell_of_;
  std::vector<std::vector<VertexId>> cells_;
};

// The components of the subgraph `cell` induces, each sorted.
std::vector<std::vector<VertexId>> CellComponents(
    const Graph& graph, const std::vector<VertexId>& cell) {
  const std::set<VertexId> members(cell.begin(), cell.end());
  std::set<VertexId> seen;
  std::vector<std::vector<VertexId>> components;
  for (VertexId start : cell) {
    if (!seen.insert(start).second) continue;
    std::vector<VertexId> component = {start};
    for (size_t head = 0; head < component.size(); ++head) {
      for (VertexId u : graph.Neighbors(component[head])) {
        if (members.count(u) != 0 && seen.insert(u).second) {
          component.push_back(u);
        }
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

struct CopyStep {
  uint32_t cell;
  std::vector<VertexId> unit;
};

// A random copy sequence that repeats cells: ten draws from a pool of the
// cells around one vertex (so copies land next to earlier copies) plus one
// random cell. A cell whose induced subgraph has several components copies
// one of them half the time, else the whole cell.
std::vector<CopyStep> RandomCopySequence(const Graph& graph,
                                         const VertexPartition& orbits,
                                         Rng& rng) {
  const VertexId center =
      static_cast<VertexId>(rng.NextBounded(graph.NumVertices()));
  std::vector<uint32_t> pool = {
      orbits.cell_of[center],
      static_cast<uint32_t>(rng.NextBounded(orbits.NumCells()))};
  for (VertexId u : graph.Neighbors(center)) {
    if (pool.size() == 5) break;
    pool.push_back(orbits.cell_of[u]);
  }
  std::vector<CopyStep> steps;
  for (int i = 0; i < 10; ++i) {
    const uint32_t cell = pool[rng.NextBounded(pool.size())];
    const std::vector<std::vector<VertexId>> components =
        CellComponents(graph, orbits.cells[cell]);
    if (components.size() > 1 && rng.NextBounded(2) == 0) {
      steps.push_back({cell, components[rng.NextBounded(components.size())]});
    } else {
      steps.push_back({cell, orbits.cells[cell]});
    }
  }
  return steps;
}

// Runs `steps` with the one Ocp over `base` and checks copy ids, tracked
// cells and the emitted graph against the reference.
template <typename Base>
void ExpectMatchesReference(const Base& base, const VertexPartition& orbits,
                            const std::vector<CopyStep>& steps,
                            const std::vector<std::vector<VertexId>>& copies,
                            const ReferenceOcp& reference,
                            const std::string& label) {
  ReleaseDelta delta(base.NumVertices());
  TrackedPartition partition(orbits);
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(OrbitCopy(base, delta, partition, steps[i].cell, steps[i].unit),
              copies[i])
        << label << " step " << i;
  }
  for (uint32_t cell = 0; cell < orbits.NumCells(); ++cell) {
    EXPECT_EQ(partition.Cell(cell), reference.cells()[cell])
        << label << " cell " << cell;
  }
  std::vector<EdgeIndex> offsets = {0};
  std::vector<VertexId> neighbors;
  AppendReleasedRows(base, delta, 0, delta.NumVertices(), offsets, neighbors);
  EXPECT_TRUE(Graph::FromCsr(std::move(offsets), std::move(neighbors)) ==
              reference.Build())
      << label;
}

TEST(OrbitCopyOracleTest, RandomCopySequencesMatchDefinition3) {
  Rng rng(3);
  size_t partial_units = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 20 + rng.NextBounded(181);
    Graph graph;
    switch (trial % 3) {
      case 0:
        graph = ErdosRenyiGnm(n, n + rng.NextBounded(n), rng);
        break;
      case 1:
        graph = BarabasiAlbert(n, 1, rng);
        break;
      default:
        graph = BarabasiAlbert(n, 2, rng);
        break;
    }
    const VertexPartition orbits =
        ComputeAutomorphismPartition(graph, {}, nullptr);
    const std::vector<CopyStep> steps =
        RandomCopySequence(graph, orbits, rng);

    ReferenceOcp reference(graph, orbits);
    std::vector<std::vector<VertexId>> copies;
    for (const CopyStep& step : steps) {
      copies.push_back(reference.Copy(step.cell, step.unit));
      if (step.unit.size() < orbits.cells[step.cell].size()) ++partial_units;
    }
    const std::string label = "trial " + std::to_string(trial);

    ExpectMatchesReference(graph, orbits, steps, copies, reference,
                           label + " in memory");

    for (const uint32_t shards : {1u, 3u}) {
      PartitionOptions split;
      split.num_shards = shards;
      const std::string prefix = testing::TempDir() + "/ocp_oracle_" +
                                 std::to_string(trial) + "_" +
                                 std::to_string(shards);
      ASSERT_TRUE(Partitioner::Split(graph, {}, split, prefix).ok());
      const auto sharded = ShardedGraph::Open(prefix + ".manifest");
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      ExpectMatchesReference(*sharded, orbits, steps, copies, reference,
                             label + " " + std::to_string(shards) +
                                 " shards");
    }
  }
  // The sequences did exercise one-component units.
  EXPECT_GT(partial_units, 0u);
}

}  // namespace
}  // namespace ksym
