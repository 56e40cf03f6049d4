// Tests for ordered partitions and equitable (colour) refinement, with a
// naive synchronous 1-WL as the refiner's independent oracle, and a
// reference split (16-byte keys, std::sort) that the refiner must match in
// every element order and trace hash.

#include "aut/refinement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/hash.h"
#include "common/rng.h"
#include "graph/generators.h"

namespace ksym {
namespace {

// Checks the equitability property: for any two cells C, W, every vertex of
// C has the same number of neighbours in W.
void ExpectEquitable(const Graph& graph,
                     const std::vector<std::vector<VertexId>>& cells) {
  std::vector<uint32_t> cell_of(graph.NumVertices());
  for (uint32_t c = 0; c < cells.size(); ++c) {
    for (VertexId v : cells[c]) cell_of[v] = c;
  }
  for (const auto& cell : cells) {
    std::vector<size_t> reference(cells.size(), 0);
    bool first = true;
    for (VertexId v : cell) {
      std::vector<size_t> counts(cells.size(), 0);
      for (VertexId u : graph.Neighbors(v)) ++counts[cell_of[u]];
      if (first) {
        reference = counts;
        first = false;
      } else {
        EXPECT_EQ(counts, reference);
      }
    }
  }
}

TEST(OrderedPartitionTest, UnitPartition) {
  OrderedPartition p(5, {});
  EXPECT_EQ(p.NumCells(), 1u);
  EXPECT_FALSE(p.IsDiscrete());
  EXPECT_EQ(p.CellSizeAt(0), 5u);
}

TEST(OrderedPartitionTest, ColorsOrderCells) {
  OrderedPartition p(4, {2, 0, 2, 1});
  EXPECT_EQ(p.NumCells(), 3u);
  const auto cells = p.Cells();
  EXPECT_EQ(cells[0], (std::vector<VertexId>{1}));       // Color 0.
  EXPECT_EQ(cells[1], (std::vector<VertexId>{3}));       // Color 1.
  ASSERT_EQ(cells[2].size(), 2u);                        // Color 2.
}

TEST(OrderedPartitionTest, IndividualizeSplitsCell) {
  OrderedPartition p(4, {});
  const uint32_t singleton = p.Individualize(2);
  EXPECT_EQ(singleton, 3u);  // Carved from the tail of the segment.
  EXPECT_EQ(p.NumCells(), 2u);
  EXPECT_EQ(p.CellSizeAt(singleton), 1u);
  EXPECT_EQ(p.CellAt(singleton)[0], 2u);
  EXPECT_EQ(p.CellSizeAt(0), 3u);
}

TEST(OrderedPartitionTest, RevertRestoresCells) {
  OrderedPartition p(6, {});
  const size_t mark = p.JournalMark();
  p.Individualize(4);
  EXPECT_EQ(p.NumCells(), 2u);
  p.RevertTo(mark);
  EXPECT_EQ(p.NumCells(), 1u);
  EXPECT_EQ(p.CellSizeAt(p.CellStartOf(4)), 6u);
}

TEST(OrderedPartitionTest, SplitCellMovesTheTailBehindTheRest) {
  OrderedPartition p(6, {});
  const size_t mark = p.JournalMark();
  const std::vector<VertexId> tail = {4, 1, 5};
  const std::vector<uint32_t> groups = {1, 2};
  p.SplitCell(0, tail, groups);
  ASSERT_EQ(p.NumCells(), 3u);
  const auto cells = p.Cells();
  // The untouched rest keeps the cell start; the tail follows in order.
  EXPECT_EQ(std::set<VertexId>(cells[0].begin(), cells[0].end()),
            (std::set<VertexId>{0, 2, 3}));
  EXPECT_EQ(cells[1], (std::vector<VertexId>{4}));
  EXPECT_EQ(cells[2], (std::vector<VertexId>{1, 5}));
  EXPECT_EQ(p.CellStartOf(2), 0u);
  EXPECT_EQ(p.CellStartOf(4), 3u);
  EXPECT_EQ(p.CellStartOf(5), 4u);

  p.RevertTo(mark);
  EXPECT_EQ(p.NumCells(), 1u);
  EXPECT_EQ(p.CellSizeAt(0), 6u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(p.CellStartOf(v), 0u);
}

TEST(OrderedPartitionTest, SplitCellWithTheWholeCellAsTail) {
  OrderedPartition p(3, {});
  const std::vector<VertexId> tail = {2, 0, 1};
  const std::vector<uint32_t> groups = {1, 2};
  p.SplitCell(0, tail, groups);
  const auto cells = p.Cells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0], (std::vector<VertexId>{2}));
  EXPECT_EQ(cells[1], (std::vector<VertexId>{0, 1}));
}

TEST(OrderedPartitionTest, TargetCellIsFirstNonSingleton) {
  OrderedPartition p(6, {2, 0, 0, 1, 1, 2});
  // Cells in colour order: {1,2}, {3,4}, {0,5}. First non-singleton: {1,2}.
  const uint32_t target = p.TargetCell();
  EXPECT_EQ(p.CellSizeAt(target), 2u);
  const auto cell = p.CellAt(target);
  EXPECT_TRUE(std::find(cell.begin(), cell.end(), 1u) != cell.end());
  EXPECT_TRUE(std::find(cell.begin(), cell.end(), 2u) != cell.end());

  // Discrete partitions have no target.
  OrderedPartition discrete(3, {0, 1, 2});
  EXPECT_EQ(discrete.TargetCell(), OrderedPartition::kNoCell);
}

TEST(OrderedPartitionTest, DiscreteElementsAndPositions) {
  OrderedPartition p(3, {2, 0, 1});
  ASSERT_TRUE(p.IsDiscrete());
  EXPECT_EQ(p.PositionOf(1), 0u);  // Color 0 first.
  EXPECT_EQ(p.PositionOf(2), 1u);
  EXPECT_EQ(p.PositionOf(0), 2u);
  const std::vector<VertexId> elements(p.Elements().begin(),
                                       p.Elements().end());
  EXPECT_EQ(elements, (std::vector<VertexId>{1, 2, 0}));
}

TEST(RefinementTest, RegularGraphStaysUnit) {
  // Colour refinement cannot split a regular graph's unit partition.
  const Graph c6 = MakeCycle(6);
  const auto cells = EquitablePartition(c6, {});
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].size(), 6u);
}

TEST(RefinementTest, StarSplitsHubFromLeaves) {
  const auto cells = EquitablePartition(MakeStar(6), {});
  ASSERT_EQ(cells.size(), 2u);
  // One singleton cell (hub), one 5-cell (leaves).
  const size_t small = std::min(cells[0].size(), cells[1].size());
  const size_t large = std::max(cells[0].size(), cells[1].size());
  EXPECT_EQ(small, 1u);
  EXPECT_EQ(large, 5u);
}

TEST(RefinementTest, PathRefinesByDistanceToEnds) {
  // P_5: cells {0,4}, {1,3}, {2}.
  const auto cells = EquitablePartition(MakePath(5), {});
  EXPECT_EQ(cells.size(), 3u);
  ExpectEquitable(MakePath(5), cells);
}

TEST(RefinementTest, ResultIsAlwaysEquitable) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = ErdosRenyiGnm(40, 70, rng);
    ExpectEquitable(g, EquitablePartition(g, {}));
  }
}

TEST(RefinementTest, RespectsInitialColors) {
  // C_4 with one coloured vertex: refinement separates by distance to it.
  const Graph c4 = MakeCycle(4);
  const auto cells = EquitablePartition(c4, RefinementOptions{.colors = {1, 0, 0, 0}});
  // {0}, {1,3}, {2}.
  EXPECT_EQ(cells.size(), 3u);
  ExpectEquitable(c4, cells);
}

TEST(RefinementTest, TraceHashIsInvariantUnderRelabeling) {
  // The trace hash of isomorphic graphs (same initial colouring pattern)
  // must match.
  const Graph g1 = MakePath(6);
  GraphBuilder b(6);  // The same path written backwards: 5-4-3-2-1-0.
  for (VertexId i = 0; i + 1 < 6; ++i) b.AddEdge(5 - i, 4 - i);
  const Graph g2 = b.Build();

  OrderedPartition p1(6, {});
  OrderedPartition p2(6, {});
  Refiner r1(g1);
  Refiner r2(g2);
  EXPECT_EQ(r1.RefineAll(p1), r2.RefineAll(p2));
}

TEST(RefinementTest, TraceHashDiffersForDifferentStructures) {
  OrderedPartition p1(6, {});
  OrderedPartition p2(6, {});
  const Graph path = MakePath(6);
  const Graph star = MakeStar(6);
  Refiner r1(path);
  Refiner r2(star);
  EXPECT_NE(r1.RefineAll(p1), r2.RefineAll(p2));
}

TEST(RefinementTest, IndividualizeThenRefineReachesDiscreteOnPath) {
  const Graph p4 = MakePath(4);  // Cells after refine: {0,3}, {1,2}.
  OrderedPartition partition(4, {});
  Refiner refiner(p4);
  refiner.RefineAll(partition);
  EXPECT_EQ(partition.NumCells(), 2u);
  const uint32_t start = partition.Individualize(0);
  refiner.RefineFrom(partition, start);
  EXPECT_TRUE(partition.IsDiscrete());
}

TEST(RefinementTest, EquitablePartitionCellsCoverAllVertices) {
  Rng rng(37);
  const Graph g = BarabasiAlbert(120, 2, rng);
  const auto cells = EquitablePartition(g, {});
  size_t total = 0;
  std::vector<bool> seen(g.NumVertices(), false);
  for (const auto& cell : cells) {
    for (VertexId v : cell) {
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, g.NumVertices());
}

// ---------------------------------------------------------------------------
// Independent oracle: naive synchronous 1-WL
// ---------------------------------------------------------------------------

using CellSet = std::set<std::vector<VertexId>>;

CellSet AsCellSet(const std::vector<std::vector<VertexId>>& cells) {
  CellSet set;
  for (std::vector<VertexId> cell : cells) {
    std::sort(cell.begin(), cell.end());
    set.insert(std::move(cell));
  }
  return set;
}

CellSet CellsOfColors(const std::vector<uint32_t>& colors) {
  std::map<uint32_t, std::vector<VertexId>> by_color;
  for (VertexId v = 0; v < colors.size(); ++v) by_color[colors[v]].push_back(v);
  CellSet set;
  for (auto& [color, cell] : by_color) set.insert(std::move(cell));
  return set;
}

// Synchronous colour refinement written without any of the refiner's
// machinery: each round, a vertex's signature is its colour followed by the
// sorted multiset of its neighbours' colours, and signatures are renumbered
// into colours. Signatures start with the old colour, so classes only
// split; the first round that adds no colour has reached the fixpoint.
std::vector<uint32_t> NaiveStableColors(const Graph& graph,
                                        std::vector<uint32_t> colors) {
  const size_t n = graph.NumVertices();
  size_t num_colors = std::set<uint32_t>(colors.begin(), colors.end()).size();
  std::vector<std::vector<uint32_t>> signature(n);
  for (;;) {
    std::map<std::vector<uint32_t>, uint32_t> ids;
    for (VertexId v = 0; v < n; ++v) {
      signature[v].assign(1, colors[v]);
      for (VertexId u : graph.Neighbors(v)) signature[v].push_back(colors[u]);
      std::sort(signature[v].begin() + 1, signature[v].end());
      ids.emplace(signature[v], 0);
    }
    if (ids.size() == num_colors) return colors;
    uint32_t next = 0;
    for (auto& [sig, id] : ids) id = next++;
    for (VertexId v = 0; v < n; ++v) colors[v] = ids[signature[v]];
    num_colors = ids.size();
  }
}

// An ER, BA or Watts-Strogatz graph of 5-70 vertices.
Graph RandomOracleGraph(int family, Rng& rng) {
  const size_t n = 5 + rng.NextBounded(66);
  switch (family) {
    case 0:
      return ErdosRenyiGnm(n, n / 2 + rng.NextBounded(2 * n), rng);
    case 1:
      return BarabasiAlbert(n, 1 + rng.NextBounded(3), rng);
    default: {
      const size_t k = 1 + rng.NextBounded(std::min<size_t>(3, (n - 1) / 2));
      return WattsStrogatz(n, k, 0.1 * static_cast<double>(rng.NextBounded(5)),
                           rng);
    }
  }
}

// The refiner's cells equal the oracle's as sets — from the unit partition
// and from random initial colours, and again after Individualize +
// RefineFrom, where the oracle gives the individualized vertex a colour of
// its own. Every result must be equitable, and RevertTo must restore the
// cells the individualization split.
TEST(RefinementOracleTest, MatchesNaiveOneWlOnRandomGraphs) {
  Rng rng(0x1E1);
  for (int trial = 0; trial < 300; ++trial) {
    const Graph graph = RandomOracleGraph(trial % 3, rng);
    const size_t n = graph.NumVertices();
    std::vector<uint32_t> random_colors(n);
    for (uint32_t& color : random_colors) {
      color = static_cast<uint32_t>(rng.NextBounded(3));
    }
    for (const bool colored : {false, true}) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n
                                      << " colored=" << colored);
      const std::vector<uint32_t> colors =
          colored ? random_colors : std::vector<uint32_t>{};
      const auto cells =
          EquitablePartition(graph, RefinementOptions{.colors = colors});
      ExpectEquitable(graph, cells);
      const std::vector<uint32_t> stable = NaiveStableColors(
          graph, colored ? colors : std::vector<uint32_t>(n, 0));
      ASSERT_EQ(AsCellSet(cells), CellsOfColors(stable));

      OrderedPartition p(n, colors);
      Refiner refiner(graph);
      refiner.RefineAll(p);
      ASSERT_EQ(AsCellSet(p.Cells()), AsCellSet(cells));
      const uint32_t target = p.TargetCell();
      if (target == OrderedPartition::kNoCell) continue;
      const auto target_cell = p.CellAt(target);
      const VertexId v = target_cell[rng.NextBounded(target_cell.size())];
      const size_t mark = p.JournalMark();
      refiner.RefineFrom(p, p.Individualize(v));
      ExpectEquitable(graph, p.Cells());
      std::vector<uint32_t> individualized = stable;
      individualized[v] = static_cast<uint32_t>(n);  // A fresh colour.
      ASSERT_EQ(AsCellSet(p.Cells()),
                CellsOfColors(NaiveStableColors(graph, individualized)));
      p.RevertTo(mark);
      EXPECT_EQ(AsCellSet(p.Cells()), AsCellSet(cells));
    }
  }
}

// ---------------------------------------------------------------------------
// SortSplitKeys against std::sort at every tier boundary
// ---------------------------------------------------------------------------

// Sorts a copy of `keys` both ways and expects the same sequence.
void ExpectSortsLikeStdSort(std::vector<SplitKey> keys,
                            std::vector<SplitKey>& scratch) {
  std::vector<SplitKey> expected = keys;
  std::sort(expected.begin(), expected.end());
  SortSplitKeys(keys, scratch);
  ASSERT_TRUE(keys == expected);
}

SplitKey RandomKey(Rng& rng) {
  return SplitKey{rng.Next()} << 64 | rng.Next();
}

// Sizes on both sides of the tier boundary, and radix sizes up to more
// keys than a 16-bit count holds.
std::vector<size_t> TierBoundarySizes() {
  return {0,
          1,
          2,
          kInsertionSortMaxKeys - 1,
          kInsertionSortMaxKeys,
          kInsertionSortMaxKeys + 1,
          511,
          512,
          513,
          70001};
}

TEST(SortSplitKeysTest, RandomKeysAtEachTierBoundary) {
  Rng rng(0x5027);
  std::vector<SplitKey> scratch;
  for (const size_t size : TierBoundarySizes()) {
    SCOPED_TRACE(testing::Message() << "size " << size);
    std::vector<SplitKey> keys(size);
    for (SplitKey& key : keys) key = RandomKey(rng);
    ExpectSortsLikeStdSort(keys, scratch);
    std::sort(keys.begin(), keys.end());
    ExpectSortsLikeStdSort(keys, scratch);
    std::reverse(keys.begin(), keys.end());
    ExpectSortsLikeStdSort(keys, scratch);
  }
}

// Keys equal everywhere but in one byte (with repeats): the radix tier makes
// exactly one pass, and for byte 15 that is the top byte.
TEST(SortSplitKeysTest, KeysThatDifferInOneByteOnly) {
  Rng rng(0x5028);
  std::vector<SplitKey> scratch;
  for (const size_t size : TierBoundarySizes()) {
    for (unsigned byte = 0; byte < 16; ++byte) {
      SCOPED_TRACE(testing::Message() << "size " << size << " byte " << byte);
      const SplitKey base = RandomKey(rng) & ~(SplitKey{0xFF} << (8 * byte));
      std::vector<SplitKey> keys(size);
      for (SplitKey& key : keys) {
        key = base | SplitKey{rng.NextBounded(256)} << (8 * byte);
      }
      ExpectSortsLikeStdSort(keys, scratch);
    }
  }
}

// Keys shaped as the refiner builds them: cell starts and counts from small
// ranges, distinct vertices in no particular order.
TEST(SortSplitKeysTest, RefinerShapedKeys) {
  Rng rng(0x5029);
  std::vector<SplitKey> scratch;
  for (const size_t size : TierBoundarySizes()) {
    SCOPED_TRACE(testing::Message() << "size " << size);
    std::vector<SplitKey> keys(size);
    for (size_t i = 0; i < size; ++i) {
      const uint64_t start = rng.NextBounded(70000);
      const uint64_t count = 1 + rng.NextBounded(300);
      const VertexId vertex = static_cast<VertexId>(i * 0x9E3779B1u);
      keys[i] = SplitKey{start} << 64 | SplitKey{count} << 32 | vertex;
    }
    ExpectSortsLikeStdSort(keys, scratch);
  }
}

// ---------------------------------------------------------------------------
// Reference split: the refiner with 16-byte keys and std::sort
// ---------------------------------------------------------------------------

// The refiner's schedule and split written out again, with each touched
// vertex keyed as a 16-byte (cell start << 32 | count, vertex) pair and the
// keys ordered by std::sort. Any difference from Refiner in element order,
// cells or trace hashes therefore comes from the key or its sort.
class ReferenceRefiner {
 public:
  explicit ReferenceRefiner(const Graph& graph)
      : graph_(graph),
        count_(graph.NumVertices(), 0),
        pending_(graph.NumVertices(), 0) {}

  uint64_t RefineAll(OrderedPartition& p) {
    for (uint32_t pos = 0; pos < p.NumVertices(); pos += p.CellSizeAt(pos)) {
      Schedule(pos);
    }
    return Drain(p);
  }

  uint64_t RefineFrom(OrderedPartition& p, uint32_t seed_start) {
    Schedule(seed_start);
    return Drain(p);
  }

 private:
  struct Key {
    uint64_t cell_and_count;
    VertexId vertex;
    friend bool operator<(const Key& a, const Key& b) {
      return a.cell_and_count != b.cell_and_count
                 ? a.cell_and_count < b.cell_and_count
                 : a.vertex < b.vertex;
    }
  };

  void Schedule(uint32_t start) {
    pending_[start] = 1;
    worklist_.push_back(start);
  }

  uint64_t Drain(OrderedPartition& p) {
    uint64_t hash = 0x243F6A8885A308D3ull;
    for (size_t head = 0; head < worklist_.size(); ++head) {
      pending_[worklist_[head]] = 0;
      Split(p, worklist_[head], hash);
    }
    worklist_.clear();
    return HashCombine(hash, p.NumCells());
  }

  void Split(OrderedPartition& p, uint32_t w_start, uint64_t& hash) {
    std::vector<VertexId> touched;
    for (VertexId u : p.CellAt(w_start)) {
      for (VertexId v : graph_.Neighbors(u)) {
        if (count_[v]++ == 0) touched.push_back(v);
      }
    }
    std::vector<Key> keys;
    for (VertexId v : touched) {
      keys.push_back({uint64_t{p.CellStartOf(v)} << 32 | count_[v], v});
      count_[v] = 0;
    }
    std::sort(keys.begin(), keys.end());
    const auto cell_of = [&keys](size_t i) {
      return static_cast<uint32_t>(keys[i].cell_and_count >> 32);
    };
    const auto count_of = [&keys](size_t i) {
      return static_cast<uint32_t>(keys[i].cell_and_count);
    };
    for (size_t first = 0, last = 0; first < keys.size(); first = last) {
      const uint32_t c_start = cell_of(first);
      while (last < keys.size() && cell_of(last) == c_start) ++last;
      const uint32_t rest =
          p.CellSizeAt(c_start) - static_cast<uint32_t>(last - first);
      if (rest == 0 && count_of(first) == count_of(last - 1)) continue;
      std::vector<VertexId> tail;
      std::vector<uint32_t> groups;
      uint32_t largest_start = c_start;
      uint32_t largest_size = rest;
      uint32_t gstart = c_start + rest;
      if (rest > 0) {
        hash = HashCombine(hash, uint64_t{c_start} << 32);
        hash = HashCombine(hash, rest);
      }
      uint32_t group_len = 0;
      for (size_t i = first; i < last; ++i) {
        tail.push_back(keys[i].vertex);
        ++group_len;
        if (i + 1 == last || count_of(i + 1) != count_of(i)) {
          groups.push_back(group_len);
          hash = HashCombine(hash, uint64_t{c_start} << 32 | count_of(i));
          hash = HashCombine(hash, group_len);
          if (group_len > largest_size) {
            largest_size = group_len;
            largest_start = gstart;
          }
          gstart += group_len;
          group_len = 0;
        }
      }
      p.SplitCell(c_start, tail, groups);
      const uint32_t skip = pending_[c_start] ? c_start : largest_start;
      gstart = c_start;
      if (rest > 0) {
        if (gstart != skip) Schedule(gstart);
        gstart += rest;
      }
      for (uint32_t size : groups) {
        if (gstart != skip) Schedule(gstart);
        gstart += size;
      }
      hash = HashCombine(hash, uint64_t{w_start} << 32 | c_start);
    }
  }

  const Graph& graph_;
  std::vector<uint32_t> count_;
  std::vector<uint8_t> pending_;
  std::vector<uint32_t> worklist_;
};

// Same element order, and at every position the same cell start and size.
void ExpectSamePartition(const OrderedPartition& actual,
                         const OrderedPartition& expected) {
  ASSERT_EQ(actual.NumCells(), expected.NumCells());
  ASSERT_TRUE(std::equal(actual.Elements().begin(), actual.Elements().end(),
                         expected.Elements().begin(),
                         expected.Elements().end()));
  for (VertexId v : expected.Elements()) {
    const uint32_t start = expected.CellStartOf(v);
    ASSERT_EQ(actual.CellStartOf(v), start) << "vertex " << v;
    ASSERT_EQ(actual.CellSizeAt(start), expected.CellSizeAt(start));
  }
}

// Runs a search-like path on both refiners: RefineAll, then Individualize
// + RefineFrom of a random member of the target cell until the partition is
// discrete or `max_depth` vertices are individualized, then RevertTo every
// mark on the way back, branching once more at each level. Trace hashes and
// partitions must agree at every step.
void ExpectRefinersAgree(const Graph& graph, const std::vector<uint32_t>& colors,
                         size_t max_depth, Rng& rng) {
  const size_t n = graph.NumVertices();
  OrderedPartition actual(n, colors);
  OrderedPartition expected(n, colors);
  Refiner refiner(graph);
  ReferenceRefiner reference(graph);
  ASSERT_EQ(refiner.RefineAll(actual), reference.RefineAll(expected));
  ExpectSamePartition(actual, expected);

  const auto individualize_both = [&] {
    const uint32_t target = expected.TargetCell();
    ASSERT_EQ(actual.TargetCell(), target);
    const auto cell = expected.CellAt(target);
    const VertexId v = cell[rng.NextBounded(cell.size())];
    const uint64_t trace = refiner.RefineFrom(actual, actual.Individualize(v));
    ASSERT_EQ(trace, reference.RefineFrom(expected, expected.Individualize(v)));
    ExpectSamePartition(actual, expected);
  };
  std::vector<size_t> marks;
  while (marks.size() < max_depth && !expected.IsDiscrete()) {
    marks.push_back(expected.JournalMark());
    ASSERT_EQ(actual.JournalMark(), marks.back());
    individualize_both();
  }
  while (!marks.empty()) {
    actual.RevertTo(marks.back());
    expected.RevertTo(marks.back());
    marks.pop_back();
    ExpectSamePartition(actual, expected);
    const size_t mark = expected.JournalMark();
    individualize_both();
    actual.RevertTo(mark);
    expected.RevertTo(mark);
    ExpectSamePartition(actual, expected);
  }
}

// A configuration-model graph with a truncated Pareto degree sequence of
// exponent 2.1, like the benchmark's power-law inputs.
Graph PowerLawGraph(size_t n, size_t max_degree, Rng& rng) {
  std::vector<size_t> degrees(n);
  size_t sum = 0;
  for (size_t& d : degrees) {
    const double x = std::pow(1.0 - rng.NextDouble(), -1.0 / 1.1);
    d = std::clamp<size_t>(static_cast<size_t>(x), 1, max_degree);
    sum += d;
  }
  if (sum % 2 == 1) ++degrees[0];
  auto graph = ConfigurationModel(degrees, rng);
  EXPECT_TRUE(graph.ok()) << graph.status();
  return std::move(graph).value();
}

TEST(ReferenceSplitTest, MatchesOnSmallRandomGraphs) {
  Rng rng(0x5030);
  for (int trial = 0; trial < 300; ++trial) {
    const Graph graph = RandomOracleGraph(trial % 3, rng);
    std::vector<uint32_t> colors(graph.NumVertices());
    for (uint32_t& color : colors) {
      color = static_cast<uint32_t>(rng.NextBounded(3));
    }
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    ExpectRefinersAgree(graph, {}, graph.NumVertices(), rng);
    ExpectRefinersAgree(graph, colors, graph.NumVertices(), rng);
  }
}

// Power-law graphs of 3k-30k vertices: their first splitter, the unit
// cell, touches every vertex with an edge, so it takes the radix tier, and
// so do the big splitters that follow.
TEST(ReferenceSplitTest, MatchesOnPowerLawGraphs) {
  Rng rng(0x5031);
  for (const size_t n : {3000u, 10000u, 30000u}) {
    const Graph graph = PowerLawGraph(n, 300, rng);
    size_t touched_by_unit_cell = 0;
    for (VertexId v = 0; v < n; ++v) touched_by_unit_cell += graph.Degree(v) > 0;
    ASSERT_GT(touched_by_unit_cell, kInsertionSortMaxKeys);
    std::vector<uint32_t> colors(n);
    for (uint32_t& color : colors) {
      color = static_cast<uint32_t>(rng.NextBounded(2));
    }
    SCOPED_TRACE(testing::Message() << "n=" << n);
    ExpectRefinersAgree(graph, {}, 12, rng);
    ExpectRefinersAgree(graph, colors, 12, rng);
  }
}

}  // namespace
}  // namespace ksym
