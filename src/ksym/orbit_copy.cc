#include "ksym/orbit_copy.h"

#include <unistd.h>

#include <cstdint>

#include "common/str.h"
#include "shard/sharded_graph.h"

namespace ksym {

CopyPlan::CopyPlan(const VertexPartition& initial)
    : initial_(&initial),
      num_vertices_(initial.cell_of.size()),
      first_copy_(initial.cell_of.size(), kInvalidVertex),
      cells_(initial.cells.size()) {}

Status CopyPlan::AddCell(uint32_t cell, std::span<const VertexId> unit,
                         uint64_t steps) {
  KSYM_CHECK(cell < cells_.size() && !unit.empty() && steps >= 1);
  KSYM_CHECK(copied_.empty() || cell > copied_.back());
  const uint64_t released = num_vertices_ + steps * unit.size();
  if (released > kInvalidVertex) {
    return Status::InvalidArgument(StrFormat(
        "the release would have %llu vertices, more than the %u vertex ids "
        "can number",
        static_cast<unsigned long long>(released), kInvalidVertex));
  }
  const VertexId first = static_cast<VertexId>(num_vertices_);
  cells_[cell] = {static_cast<uint32_t>(steps), first,
                  static_cast<uint32_t>(units_.size()),
                  static_cast<uint32_t>(unit.size())};
  for (uint32_t rank = 0; rank < unit.size(); ++rank) {
    KSYM_DCHECK(CellOf(unit[rank]) == cell);
    KSYM_DCHECK(rank == 0 || unit[rank - 1] < unit[rank]);
    first_copy_[unit[rank]] = first + rank;
  }
  units_.insert(units_.end(), unit.begin(), unit.end());
  copied_.push_back(cell);
  num_vertices_ = released;
  return Status::Ok();
}

VertexPartition CopyPlan::ReleasedPartition() const {
  VertexPartition released = *initial_;
  released.cell_of.reserve(num_vertices_);
  for (uint32_t cell : copied_) {
    const size_t copies = size_t{Steps(cell)} * Unit(cell).size();
    std::vector<VertexId>& members = released.cells[cell];
    members.reserve(members.size() + copies);
    for (size_t i = 0; i < copies; ++i) {
      members.push_back(cells_[cell].first + static_cast<VertexId>(i));
    }
    released.cell_of.resize(released.cell_of.size() + copies, cell);
  }
  return released;
}

template <typename Base>
ReleaseRows<Base>::ReleaseRows(const Base& base, const CopyPlan& plan)
    : base_(base), plan_(plan) {
  const size_t n = plan.NumInputVertices();
  degree_.resize(n);
  copied_offsets_.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    EdgeIndex copied = 0;
    for (VertexId u : base.Neighbors(v)) {
      const size_t instances = plan.Instances(u);
      degree_[v] += plan.CellOf(u) == plan.CellOf(v) ? 1 : instances;
      copied += instances > 1 ? 1 : 0;
    }
    copied_offsets_[v + 1] = copied_offsets_[v] + copied;
    arcs_ += degree_[v] * plan.Instances(v);
  }
  // Listing the copied vertices in (cell, rank) order sorts every vertex's
  // copied neighbours that way, with no per-row sort.
  copied_.resize(copied_offsets_[n]);
  std::vector<EdgeIndex> next(copied_offsets_.begin(), copied_offsets_.end());
  for (uint32_t cell : plan.CopiedCells()) {
    for (VertexId u : plan.Unit(cell)) {
      for (VertexId v : base.Neighbors(u)) copied_[next[v]++] = u;
    }
  }
}

template <typename Base>
VertexId* ReleaseRows<Base>::WriteRow(const Instance& row,
                                      VertexId* out) const {
  // The input neighbours: all of them for an original; for a copy those in
  // other cells (rule 1), since its in-cell neighbours are copies (rule 2).
  for (VertexId u : base_.Neighbors(row.original)) {
    if (row.step == 0 || plan_.CellOf(u) != row.cell) *out++ = u;
  }
  // Then the copies, ascending: each cell owns one id range ordered by
  // (step, rank), and the copied neighbours come grouped by (cell, rank).
  const VertexId* copied = copied_.data() + copied_offsets_[row.original];
  const VertexId* const copied_end =
      copied_.data() + copied_offsets_[row.original + 1];
  while (copied != copied_end) {
    const uint32_t cell = plan_.CellOf(*copied);
    const VertexId* group_end = copied;
    while (group_end != copied_end && plan_.CellOf(*group_end) == cell) {
      ++group_end;
    }
    const VertexId stride = static_cast<VertexId>(plan_.Unit(cell).size());
    if (cell == row.cell) {
      // Rule 2: a copy's in-cell neighbours are the same step's copies.
      for (; row.step > 0 && copied != group_end; ++copied) {
        *out++ = plan_.FirstCopy(*copied) + (row.step - 1) * stride;
      }
    } else {
      // Rule 1: every copy of a neighbour in another cell, step by step.
      const ptrdiff_t group = group_end - copied;
      for (; copied != group_end; ++copied) *out++ = plan_.FirstCopy(*copied);
      for (ptrdiff_t i = group; i < group * plan_.Steps(cell); ++i, ++out) {
        *out = out[-group] + stride;
      }
    }
    copied = group_end;
  }
  return out;
}

template <typename Base>
void ReleaseRows<Base>::Append(size_t begin, size_t end,
                               std::vector<EdgeIndex>& offsets,
                               std::vector<VertexId>& neighbors) const {
  KSYM_DCHECK(offsets.back() == neighbors.size());
  const size_t start = neighbors.size();
  plan_.ForEachInstance(begin, end, [&](VertexId, const Instance& row) {
    offsets.push_back(offsets.back() + degree_[row.original]);
  });
  neighbors.resize(offsets.back());
  VertexId* out = neighbors.data() + start;
  plan_.ForEachInstance(begin, end, [&](VertexId, const Instance& row) {
    out = WriteRow(row, out);
  });
  // Rows come out short of the degree pass if a unit is not intra-cell closed.
  KSYM_CHECK(out == neighbors.data() + neighbors.size());
}

Result<Graph> ReleasedGraph(const Graph& base, const CopyPlan& plan) {
  const ReleaseRows<Graph> rows(base, plan);
  // 8 bytes per released vertex for its offset and 8 per released edge for
  // its two neighbour ids.
  uint64_t bytes = 0;
  const bool overflow =
      __builtin_mul_overflow(uint64_t{rows.NumEdges()}, uint64_t{8}, &bytes) ||
      __builtin_add_overflow(bytes, uint64_t{plan.NumVertices()} * 8, &bytes);
  const uint64_t physical = static_cast<uint64_t>(sysconf(_SC_PHYS_PAGES)) *
                            static_cast<uint64_t>(sysconf(_SC_PAGE_SIZE));
  if (overflow || bytes > physical) {
    return Status::InvalidArgument(StrFormat(
        "the release would have %zu vertices and %zu edges, %s%llu bytes of "
        "CSR, more than the %llu bytes of physical memory",
        plan.NumVertices(), rows.NumEdges(), overflow ? "over " : "",
        static_cast<unsigned long long>(overflow ? UINT64_MAX : bytes),
        static_cast<unsigned long long>(physical)));
  }
  std::vector<EdgeIndex> offsets;
  offsets.reserve(plan.NumVertices() + 1);
  offsets.push_back(0);
  std::vector<VertexId> neighbors;
  rows.Append(0, plan.NumVertices(), offsets, neighbors);
  return Graph::FromCsr(std::move(offsets), std::move(neighbors));
}

template class ReleaseRows<Graph>;
template class ReleaseRows<ShardedGraph>;

}  // namespace ksym
