// Algorithm 1 as a planned lift of its input (DESIGN.md §11): every
// Algorithm 1 entry point and Algorithm 3's regrow plan their copies here
// and emit the release with the one row emitter.
//
// Ocp (Definition 3) gives each copied unit member v a copy v' with
//   1. an edge (u, v') for every edge (u, v) with u outside v's cell;
//   2. an edge (u', v') for every edge (u, v) inside the unit.
// Applied cell by cell, a number of steps with one unit each, it turns an
// input edge between two cells into the complete join of all instances
// (original and copies) of its endpoints, and an input edge inside a cell
// into the edge between the originals plus, when the unit holds them, one
// between the step-j copies for every step j. So the release is fixed by
// the input and, per cell, a unit and a step count: the plan numbers the
// copies, and the emitter writes each released row, sorted, from the input
// row and the plan. The input (the *base*) is a `Graph` in memory or a
// `ShardedGraph` on disk.

#ifndef KSYM_KSYM_ORBIT_COPY_H_
#define KSYM_KSYM_ORBIT_COPY_H_

#include <algorithm>
#include <span>
#include <vector>

#include "aut/orbits.h"
#include "common/status.h"
#include "graph/graph.h"

namespace ksym {

/// Where a released vertex comes from: its input vertex, its cell, and the
/// copy step that made it (0 for an original).
struct Instance {
  VertexId original;
  uint32_t cell;
  uint32_t step;
};

/// Algorithm 1's copies over an initial partition, as id arithmetic: the
/// copied cells' id ranges follow the n input vertices in cell order, and
/// step j's copy of unit member v of cell c is
///   first_c + (j - 1)·|U_c| + rank_{U_c}(v).
class CopyPlan {
 public:
  /// No copies yet. `initial` (cells sorted and ordered by minimum, as
  /// VertexPartition keeps them) must outlive the plan.
  explicit CopyPlan(const VertexPartition& initial);

  /// Plans `steps` >= 1 copies of `unit` — a sorted subset of cell `cell`,
  /// closed under intra-cell adjacency (whole cells and unions of
  /// components of the cell-induced subgraph are) — after the cells planned
  /// so far, which must be lower. InvalidArgument, with the plan unchanged,
  /// when the released ids would not fit VertexId.
  Status AddCell(uint32_t cell, std::span<const VertexId> unit,
                 uint64_t steps);

  size_t NumInputVertices() const { return first_copy_.size(); }
  size_t NumVertices() const { return num_vertices_; }
  /// The copied cells, ascending, as are their id ranges.
  std::span<const uint32_t> CopiedCells() const { return copied_; }

  uint32_t CellOf(VertexId v) const { return initial_->cell_of[v]; }
  /// The cell's copy steps; 0 when it is not copied.
  uint32_t Steps(uint32_t cell) const { return cells_[cell].steps; }
  /// The cell's unit; empty when it is not copied.
  std::span<const VertexId> Unit(uint32_t cell) const {
    return std::span<const VertexId>(units_).subspan(cells_[cell].unit_begin,
                                                     cells_[cell].unit_size);
  }
  /// The step-1 copy of input vertex v (kInvalidVertex when none); its
  /// step-j copy is j - 1 unit sizes further.
  VertexId FirstCopy(VertexId v) const { return first_copy_[v]; }
  /// Instances of input vertex v in the release: itself and its copies.
  size_t Instances(VertexId v) const {
    return first_copy_[v] == kInvalidVertex ? 1
                                            : size_t{1} + Steps(CellOf(v));
  }

  /// Calls fn(x, instance) for x in [begin, end), in order: a copy's
  /// original, cell and step follow from its id.
  template <typename Fn>
  void ForEachInstance(size_t begin, size_t end, Fn&& fn) const {
    size_t x = begin;
    for (; x < std::min(end, NumInputVertices()); ++x) {
      const VertexId v = static_cast<VertexId>(x);
      fn(v, Instance{v, CellOf(v), 0});
    }
    if (x >= end) return;
    // The copies: from the last copied cell whose range starts at or before
    // x, cell by cell, step by step, rank by rank.
    size_t i = std::upper_bound(copied_.begin(), copied_.end(), x,
                                [this](size_t id, uint32_t cell) {
                                  return id < cells_[cell].first;
                                }) -
               copied_.begin() - 1;
    for (size_t offset = x - cells_[copied_[i]].first; x < end;
         ++i, offset = 0) {
      const uint32_t cell = copied_[i];
      const std::span<const VertexId> unit = Unit(cell);
      for (size_t step = offset / unit.size(), rank = offset % unit.size();
           step < Steps(cell) && x < end; ++step, rank = 0) {
        for (; rank < unit.size() && x < end; ++rank, ++x) {
          fn(static_cast<VertexId>(x),
             Instance{unit[rank], cell, static_cast<uint32_t>(step + 1)});
        }
      }
    }
  }

  /// The released sub-automorphism partition V': each cell of `initial`
  /// followed by its copies, in the same cell order.
  VertexPartition ReleasedPartition() const;

 private:
  struct Cell {
    uint32_t steps = 0;
    VertexId first = 0;  // First copy id, when copied.
    uint32_t unit_begin = 0;  // Into units_.
    uint32_t unit_size = 0;
  };

  const VertexPartition* initial_;
  size_t num_vertices_;
  std::vector<VertexId> first_copy_;  // Per input vertex.
  std::vector<Cell> cells_;
  std::vector<uint32_t> copied_;  // Copied cells, ascending.
  std::vector<VertexId> units_;   // Their units, concatenated.
};

/// The row emitter for (base, plan), for a `Graph` or `ShardedGraph` base.
/// Construction reads the base once for the released degrees — deg'(v), of
/// v and of each copy, sums Instances(u) over v's input neighbours u in
/// other cells and 1 over those in its own — and once more to list every
/// vertex's copied neighbours by (cell, rank): O(n + m) memory.
template <typename Base>
class ReleaseRows {
 public:
  ReleaseRows(const Base& base, const CopyPlan& plan);

  size_t NumEdges() const { return arcs_ / 2; }

  /// Appends the rows of released vertices [begin, end): one end offset per
  /// row to `offsets` (continuing from offsets.back(), which must equal
  /// neighbors.size()) and the rows, each written in place and sorted, to
  /// `neighbors`.
  void Append(size_t begin, size_t end, std::vector<EdgeIndex>& offsets,
              std::vector<VertexId>& neighbors) const;

 private:
  VertexId* WriteRow(const Instance& row, VertexId* out) const;

  const Base& base_;
  const CopyPlan& plan_;
  std::vector<EdgeIndex> degree_;          // deg' per input vertex.
  std::vector<EdgeIndex> copied_offsets_;  // Per input vertex + 1.
  std::vector<VertexId> copied_;  // Copied neighbours, by (cell, rank).
  EdgeIndex arcs_ = 0;
};

/// The released graph of an in-memory base: every row through ReleaseRows.
/// InvalidArgument, before any of the release is allocated, when its CSR
/// (8 bytes per vertex and 8 per edge) would exceed physical memory.
Result<Graph> ReleasedGraph(const Graph& base, const CopyPlan& plan);

}  // namespace ksym

#endif  // KSYM_KSYM_ORBIT_COPY_H_
