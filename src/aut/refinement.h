// Equitable partition refinement (1-dimensional Weisfeiler-Leman, a.k.a.
// colour refinement) on ordered partitions.
//
// This is the workhorse of the individualization-refinement automorphism
// search (aut/search.*) and also directly implements the paper's "total
// degree partition" TDV(G) (Section 7): the coarsest equitable partition
// refining the initial colouring, which the paper reports coincides with the
// automorphism partition Orb(G) on all their real networks.
//
// An OrderedPartition keeps the vertices in a single array where each cell
// is a contiguous segment; a cell is named by its start position. All
// processing orders (worklist order, affected-cell order, count order) are
// isomorphism-invariant, which makes the refinement trace hash usable for
// search-tree pruning and canonical labelling.

#ifndef KSYM_AUT_REFINEMENT_H_
#define KSYM_AUT_REFINEMENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "aut/neighbor_source.h"
#include "common/parallel.h"
#include "graph/graph.h"

namespace ksym {

/// An ordered partition of [0, n) into contiguous cells.
class OrderedPartition {
 public:
  static constexpr uint32_t kNoCell = static_cast<uint32_t>(-1);

  /// The unit partition (single cell) if colors is empty, else cells grouped
  /// by color and ordered by ascending color value.
  OrderedPartition(size_t n, const std::vector<uint32_t>& colors);

  size_t NumVertices() const { return elements_.size(); }
  size_t NumCells() const { return num_cells_; }
  bool IsDiscrete() const { return num_cells_ == elements_.size(); }

  /// Start position of the cell containing v.
  uint32_t CellStartOf(VertexId v) const { return cell_start_[v]; }

  /// Size of the cell starting at `start` (must be a cell start).
  uint32_t CellSizeAt(uint32_t start) const { return cell_size_[start]; }

  /// Elements of the cell starting at `start`.
  std::span<const VertexId> CellAt(uint32_t start) const {
    return {elements_.data() + start, cell_size_[start]};
  }

  /// Start of the first cell of size > 1 in partition order, or kNoCell if
  /// discrete. This is the (isomorphism-invariant) target-cell selector of
  /// the search; amortized O(1) via a monotone hint that RevertTo rewinds.
  uint32_t TargetCell() const;

  /// Splits v's cell into [ {v}, rest ]; requires |cell| >= 2. Returns the
  /// start of the new singleton cell (== old cell start).
  uint32_t Individualize(VertexId v);

  /// All cells in order, as vertex lists.
  std::vector<std::vector<VertexId>> Cells() const;

  /// The vertices in partition order: on a discrete partition, the vertex
  /// at each position of the labelling.
  std::span<const VertexId> Elements() const { return elements_; }

  /// Index of v in Elements(): its label on a discrete partition.
  uint32_t PositionOf(VertexId v) const { return position_[v]; }

  /// Splits the cell starting at `start`: the members in `tail` (distinct,
  /// a subset of the cell) move to the end of the cell in the given order
  /// and are carved into consecutive groups of sizes `tail_groups`, which
  /// sum to |tail|. The members not in `tail` stay at the front as one
  /// cell, unless `tail` is the whole cell. O(|tail|), and so is the
  /// revert. Internal helper for the refiner; exposed for tests.
  void SplitCell(uint32_t start, std::span<const VertexId> tail,
                 std::span<const uint32_t> tail_groups);

  /// Backtracking support: every split (including Individualize) is
  /// journaled. JournalMark() before a speculative step, RevertTo(mark) to
  /// merge all later splits back. Within-cell element order after a revert
  /// may differ from before the step; cell contents are restored exactly.
  size_t JournalMark() const { return journal_.size(); }
  void RevertTo(size_t mark);

 private:
  // The cell at `start` had `old_size` members before it split into
  // `num_groups` cells; the first of them kept `start`.
  struct SplitRecord {
    uint32_t start;
    uint32_t old_size;
    uint32_t num_groups;
  };

  std::vector<VertexId> elements_;   // Vertices; cells are segments.
  std::vector<uint32_t> position_;   // position_[v]: index of v in elements_.
  std::vector<uint32_t> cell_start_; // cell_start_[v]: start of v's cell.
  std::vector<uint32_t> cell_size_;  // Valid at cell-start indices.
  size_t num_cells_ = 0;
  std::vector<SplitRecord> journal_;
  // Every cell starting before target_hint_ is a singleton.
  mutable uint32_t target_hint_ = 0;
};

/// A touched vertex's split key: (cell start << 64) | (count << 32) |
/// vertex. Ascending keys group a splitter's touched vertices by cell, in
/// start order, then by count, then by vertex id: an order independent of
/// the order in which a neighbor source discovered them.
using SplitKey = unsigned __int128;

/// Key count up to which SortSplitKeys uses insertion sort; more keys get
/// the radix sort.
inline constexpr size_t kInsertionSortMaxKeys = 32;

/// Sorts `keys` ascending, by a method chosen from their number alone:
/// insertion sort, or an LSD byte radix sort through `scratch` with one
/// pass per byte on which the keys are not all equal. Internal helper for
/// the refiner; exposed for tests.
void SortSplitKeys(std::span<SplitKey> keys, std::vector<SplitKey>& scratch);

/// Options for the refinement entry points.
struct RefinementOptions {
  /// Initial colouring (empty = unit partition), as for OrderedPartition.
  std::vector<uint32_t> colors = {};
  /// Stats sink for refine counters and timers. nullptr = none. Refinement
  /// itself is sequential whatever the context's thread count.
  const ExecutionContext* context = nullptr;
  /// If non-null, receives the refinement trace hash — the
  /// isomorphism-invariant digest RefineAll returns, identical across the
  /// in-memory / sharded neighbor sources.
  uint64_t* trace_hash = nullptr;
};

/// Stateful refiner holding scratch buffers keyed to one graph.
///
/// One sequential algorithm (DESIGN.md §7): Hopcroft / Paige–Tarjan
/// scheduling — a split queues every sub-cell except the largest, unless
/// the parent cell is still queued — so each vertex sits in O(log n)
/// processed splitters and a full refinement reads O((n + m) log n) arcs;
/// splits move only the vertices the splitter touches, after one
/// SortSplitKeys of their keys. All per-call state is cleared as it is
/// consumed, so a refine call costs O(work), never O(n).
///
/// The Graph constructors bind the refiner to an in-memory CSR source; the
/// NeighborSource constructor accepts any implementation of the counting
/// seam (e.g. ShardedNeighborSource for out-of-core shard sets) — the
/// splits and the trace hash are source-agnostic (DESIGN.md §11).
class Refiner {
 public:
  explicit Refiner(const Graph& graph);
  Refiner(const Graph& graph, const ExecutionContext* context);
  /// Binds to a caller-owned source, which must outlive the refiner.
  Refiner(NeighborSource& source, const ExecutionContext* context);

  /// Refines `p` to the coarsest equitable partition finer than it, seeding
  /// the splitter worklist with every current cell. Returns an
  /// isomorphism-invariant trace hash of the refinement.
  uint64_t RefineAll(OrderedPartition& p);

  /// Refines after Individualize(): the worklist is seeded with the new
  /// singleton cell at `seed_start` (sufficient to restore equitability when
  /// `p` was equitable before the split). Returns the trace hash.
  uint64_t RefineFrom(OrderedPartition& p, uint32_t seed_start);

 private:
  /// Queues the cell starting at `start` as a splitter.
  void Schedule(uint32_t start) {
    pending_[start] = 1;
    worklist_.push_back(start);
  }

  /// Drains the worklist. Returns the trace hash.
  uint64_t DoRefine(OrderedPartition& p);

  /// Splits every cell by its members' neighbour counts in the splitter at
  /// `w_start`, folding each split into `hash` and queueing sub-cells.
  void ProcessSplitter(OrderedPartition& p, uint32_t w_start, uint64_t& hash);

  NeighborSource* source_;  // The counting seam; never null.
  std::unique_ptr<NeighborSource> owned_source_;  // Set by the Graph ctors.
  const ExecutionContext* context_;  // May be null (no stats).
  // Per-vertex neighbour counts, zero between splitters.
  std::vector<uint32_t> count_;
  // pending_[s] != 0 iff the cell starting at s is in the worklist; all
  // zero between refine calls.
  std::vector<uint8_t> pending_;
  // Scratch reused across calls, so refines do not allocate.
  std::vector<uint32_t> worklist_;
  std::vector<VertexId> touched_;
  std::vector<SplitKey> keys_;
  std::vector<SplitKey> sort_scratch_;
  std::vector<VertexId> tail_;
  std::vector<uint32_t> tail_groups_;
};

/// The stable (coarsest equitable) partition refining options.colors — the
/// paper's TDV(G) when colors is empty. Cells are returned in partition
/// order.
std::vector<std::vector<VertexId>> EquitablePartition(
    const Graph& graph, const RefinementOptions& options);

/// As above over any neighbor source — the entry point the out-of-core
/// pipeline uses (shard/refine.h wraps a ShardedGraph into a source and
/// calls this). Identical cells and trace hash to the Graph overload.
std::vector<std::vector<VertexId>> EquitablePartition(
    NeighborSource& source, const RefinementOptions& options);

}  // namespace ksym

#endif  // KSYM_AUT_REFINEMENT_H_
