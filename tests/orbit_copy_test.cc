// Tests for the orbit copying operation (Definition 3, Lemmas 1-3) as the
// copy plan and row emitter apply it, and a reference Ocp over a plain edge
// set that shares no code with them: random per-cell plans must give the
// same copy ids, cells, originals and released rows over an in-memory base
// and over 1- and 3-shard bases.

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

// A copy plan over an in-memory base: each Copy plans one cell, in
// ascending cell order.
struct Copier {
  Copier(const Graph& graph, const VertexPartition& initial)
      : base(graph), plan(initial) {}

  // The copy ids of the last step, aligned with `unit`.
  std::vector<VertexId> Copy(uint32_t cell, std::span<const VertexId> unit,
                             uint64_t steps = 1) {
    EXPECT_TRUE(plan.AddCell(cell, unit, steps).ok());
    std::vector<VertexId> copies;
    for (VertexId v : unit) {
      copies.push_back(plan.FirstCopy(v) +
                       static_cast<VertexId>((steps - 1) * unit.size()));
    }
    return copies;
  }
  Graph Release() const { return ReleasedGraph(base, plan).value(); }

  const Graph& base;
  CopyPlan plan;
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
  EXPECT_EQ(copier.plan.ReleasedPartition().cells[2].size(), 4u);
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
        copier.Release(), copier.plan.ReleasedPartition()))
        << "cell " << cell;
  }
}

TEST(OrbitCopyTest, RepeatedCopiesKeepProperty) {
  // Lemma 2: N copies of the same cell.
  const Graph g = Figure3Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  Copier copier(g, orbits);
  copier.Copy(0, orbits.cells[0], 3);
  EXPECT_EQ(copier.plan.ReleasedPartition().cells[0].size(), 8u);
  EXPECT_TRUE(IsCellwiseSubAutomorphismPartition(
      copier.Release(), copier.plan.ReleasedPartition()));
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

// Definition 3 over a plain edge set, written without the copy plan or the
// row emitter: new ids are appended, rules 1 and 2 are applied to the
// current edge set, and the graph is built by GraphBuilder.
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

TEST(OrbitCopyTest, OrderIndependenceUpToIsomorphism) {
  // Lemma 3: applying the same multiset of copy operations in different
  // orders yields isomorphic graphs. The plan applies them in cell order;
  // the reference in reverse.
  const Graph g = Figure3Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);

  Copier planned(g, orbits);
  planned.Copy(0, orbits.cells[0]);
  planned.Copy(2, orbits.cells[2]);
  planned.Copy(4, orbits.cells[4]);

  ReferenceOcp reversed(g, orbits);
  reversed.Copy(4, orbits.cells[4]);
  reversed.Copy(2, orbits.cells[2]);
  reversed.Copy(0, orbits.cells[0]);

  EXPECT_TRUE(AreIsomorphic(planned.Release(), reversed.Build()));
}

// One planned cell: `steps` Ocps of `unit`.
struct CellPlan {
  uint32_t cell;
  std::vector<VertexId> unit;
  uint64_t steps;
};

// A random per-cell plan: the cells around one vertex (so copies land next
// to other copies) plus one random cell, in ascending order, each copied
// 1-3 times. A cell whose induced subgraph has several components copies
// one of them half the time, else the whole cell.
std::vector<CellPlan> RandomPlan(const Graph& graph,
                                 const VertexPartition& orbits, Rng& rng) {
  const VertexId center =
      static_cast<VertexId>(rng.NextBounded(graph.NumVertices()));
  std::set<uint32_t> cells = {
      orbits.cell_of[center],
      static_cast<uint32_t>(rng.NextBounded(orbits.NumCells()))};
  for (VertexId u : graph.Neighbors(center)) {
    if (cells.size() == 5) break;
    cells.insert(orbits.cell_of[u]);
  }
  std::vector<CellPlan> plan;
  for (const uint32_t cell : cells) {
    const std::vector<std::vector<VertexId>> components =
        CellComponents(graph, orbits.cells[cell]);
    std::vector<VertexId> unit =
        components.size() > 1 && rng.NextBounded(2) == 0
            ? components[rng.NextBounded(components.size())]
            : orbits.cells[cell];
    plan.push_back({cell, std::move(unit), 1 + rng.NextBounded(3)});
  }
  return plan;
}

// Emits the release of `plan` over `base` in `ranges` consecutive output
// ranges, and checks each range's rows against the reference graph.
template <typename Base>
void ExpectRowsMatch(const Base& base, const CopyPlan& plan,
                     const Graph& expected, size_t ranges,
                     const std::string& label) {
  const ReleaseRows<Base> rows(base, plan);
  EXPECT_EQ(rows.NumEdges(), expected.NumEdges()) << label;
  const size_t n = plan.NumVertices();
  const size_t chunk = (n + ranges - 1) / ranges;
  for (size_t begin = 0; begin < n; begin += chunk) {
    const size_t end = std::min(n, begin + chunk);
    std::vector<EdgeIndex> offsets = {0};
    std::vector<VertexId> neighbors;
    rows.Append(begin, end, offsets, neighbors);
    ASSERT_EQ(offsets.size(), end - begin + 1) << label;
    for (size_t x = begin; x < end; ++x) {
      const std::span<const VertexId> row(
          neighbors.data() + offsets[x - begin],
          neighbors.data() + offsets[x - begin + 1]);
      const std::span<const VertexId> want =
          expected.Neighbors(static_cast<VertexId>(x));
      EXPECT_TRUE(std::ranges::equal(row, want))
          << label << " row " << x << " of range [" << begin << ", " << end
          << ")";
    }
  }
}

TEST(OrbitCopyOracleTest, RandomPlansMatchDefinition3) {
  Rng rng(3);
  size_t partial_units = 0;
  size_t repeated_steps = 0;
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
    const std::vector<CellPlan> cells = RandomPlan(graph, orbits, rng);
    const std::string label = "trial " + std::to_string(trial);

    // Algorithm 1 order: cell by cell, each cell's steps in a row. The
    // reference appends each copy's id, so its instance is the next entry.
    CopyPlan plan(orbits);
    ReferenceOcp reference(graph, orbits);
    std::vector<Instance> want;
    for (VertexId v = 0; v < n; ++v) want.push_back({v, orbits.cell_of[v], 0});
    for (const CellPlan& cell : cells) {
      ASSERT_TRUE(plan.AddCell(cell.cell, cell.unit, cell.steps).ok());
      if (cell.unit.size() < orbits.cells[cell.cell].size()) ++partial_units;
      if (cell.steps > 1) ++repeated_steps;
      for (uint32_t step = 1; step <= cell.steps; ++step) {
        const std::vector<VertexId> copies =
            reference.Copy(cell.cell, cell.unit);
        for (size_t i = 0; i < copies.size(); ++i) {
          EXPECT_EQ(plan.FirstCopy(cell.unit[i]) +
                        (step - 1) * cell.unit.size(),
                    copies[i])
              << label << " cell " << cell.cell << " step " << step;
          ASSERT_EQ(copies[i], want.size()) << label;
          want.push_back({cell.unit[i], cell.cell, step});
        }
      }
    }
    const Graph expected = reference.Build();
    ASSERT_EQ(plan.NumVertices(), expected.NumVertices()) << label;
    EXPECT_EQ(plan.ReleasedPartition().cells, reference.cells()) << label;
    // Each copy's original, cell and step, walked from any start.
    for (int walk = 0; walk < 4; ++walk) {
      const size_t begin = walk == 0 ? 0 : rng.NextBounded(want.size());
      size_t next = begin;
      plan.ForEachInstance(begin, want.size(),
                           [&](VertexId x, const Instance& instance) {
                             ASSERT_EQ(x, next++);
                             EXPECT_EQ(instance.original, want[x].original);
                             EXPECT_EQ(instance.cell, want[x].cell);
                             EXPECT_EQ(instance.step, want[x].step);
                           });
      EXPECT_EQ(next, want.size()) << label;
    }

    ExpectRowsMatch(graph, plan, expected, 1, label + " in memory");
    EXPECT_TRUE(ReleasedGraph(graph, plan).value() == expected) << label;
    for (const uint32_t shards : {1u, 3u}) {
      PartitionOptions split;
      split.num_shards = shards;
      const std::string prefix = testing::TempDir() + "/ocp_oracle_" +
                                 std::to_string(trial) + "_" +
                                 std::to_string(shards);
      ASSERT_TRUE(Partitioner::Split(graph, {}, split, prefix).ok());
      const auto sharded = ShardedGraph::Open(prefix + ".manifest");
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      ExpectRowsMatch(*sharded, plan, expected, 1 + trial % 4,
                      label + " " + std::to_string(shards) + " shards");
    }

    // Lemma 3: the same copies applied in reverse cell order give an
    // isomorphic graph. (A release that failed above may not be a simple
    // graph, which the isomorphism search checks fatally.)
    ASSERT_FALSE(HasFailure()) << label;
    ReferenceOcp reversed(graph, orbits);
    for (auto cell = cells.rbegin(); cell != cells.rend(); ++cell) {
      for (uint64_t step = 0; step < cell->steps; ++step) {
        reversed.Copy(cell->cell, cell->unit);
      }
    }
    EXPECT_TRUE(AreIsomorphic(ReleasedGraph(graph, plan).value(),
                              reversed.Build()))
        << label;
  }
  // The plans did exercise one-component units and repeated steps.
  EXPECT_GT(partial_units, 0u);
  EXPECT_GT(repeated_steps, 0u);
}

TEST(CopyPlanTest, RejectsIdsBeyondVertexId) {
  // k = 2^31 on a 3-vertex path: 2^32 released vertices.
  const Graph path = MakePath(3);
  const VertexPartition orbits =
      ComputeAutomorphismPartition(path, {}, nullptr);
  CopyPlan plan(orbits);
  const uint32_t ends = orbits.cell_of[0];
  const uint32_t middle = orbits.cell_of[1];
  ASSERT_LT(ends, middle);
  ASSERT_TRUE(plan.AddCell(ends, orbits.cells[ends], (1u << 30) - 1).ok());
  const Status status =
      plan.AddCell(middle, orbits.cells[middle], (1u << 31) - 1);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("4294967296"), std::string::npos)
      << status.ToString();
  // The plan is unchanged.
  EXPECT_EQ(plan.NumVertices(), 3u + (1u << 31) - 2);
  EXPECT_EQ(plan.Steps(middle), 0u);
}

}  // namespace
}  // namespace ksym
