#include "ksym/sharded_anonymizer.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "ksym/partition.h"
#include "ksym/release_io.h"
#include "shard/partitioner.h"
#include "shard/refine.h"

namespace ksym {
namespace {

/// The adjacency Algorithm 1 adds on top of the base shard set — the only
/// edge state the out-of-core pipeline holds in memory. Originals keep just
/// their *added* neighbors (the base CSR row stays on disk); copies keep
/// their full rows. Mirrors MutableGraph's insertion behaviour exactly:
/// AddEdge appends to both endpoints' rows, ids are dense, rows are sorted
/// once at the end (Freeze() does the same), so base-row + sorted-delta-row
/// reproduces the frozen in-memory adjacency byte for byte.
class ReleaseDelta {
 public:
  explicit ReleaseDelta(size_t base) : base_(base), added_(base) {}

  size_t NumVertices() const { return base_ + new_rows_.size(); }
  size_t added_edges() const { return added_edges_; }

  VertexId AddVertex() {
    new_rows_.emplace_back();
    return static_cast<VertexId>(base_ + new_rows_.size() - 1);
  }

  void AddEdge(VertexId u, VertexId v) {
    KSYM_DCHECK(u != v);
    Row(u).push_back(v);
    Row(v).push_back(u);
    ++added_edges_;
  }

  /// Neighbors added to `v` (for originals: on top of the base row; for
  /// copies: the whole row). Unsorted until SortRows().
  std::span<const VertexId> added(VertexId v) const {
    return v < base_ ? std::span<const VertexId>(added_[v])
                     : std::span<const VertexId>(new_rows_[v - base_]);
  }

  /// Sorts every row, establishing the CSR emission order. Originals' added
  /// rows hold only copy ids (>= base: rule 1 attaches copies to existing
  /// vertices, never originals to originals), so base-row ++ added-row is
  /// globally sorted without a merge.
  void SortRows() {
    for (std::vector<VertexId>& row : added_) std::sort(row.begin(), row.end());
    for (std::vector<VertexId>& row : new_rows_) {
      std::sort(row.begin(), row.end());
    }
  }

 private:
  std::vector<VertexId>& Row(VertexId v) {
    KSYM_DCHECK(v < NumVertices());
    return v < base_ ? added_[v] : new_rows_[v - base_];
  }

  size_t base_;
  std::vector<std::vector<VertexId>> added_;     // Per original, ids >= base_.
  std::vector<std::vector<VertexId>> new_rows_;  // Per copy, full row.
  size_t added_edges_ = 0;
};

/// OrbitCopy against (base shard set + delta) instead of a MutableGraph.
/// Identical rules, identical copy-id assignment, identical edge set: a
/// unit member's current neighborhood is its base row followed by its delta
/// row, and each neighbor is handled independently, so the split changes
/// nothing (see ksym/orbit_copy.cc for the single-graph original).
void ShardedOrbitCopy(const ShardedGraph& base, ReleaseDelta& delta,
                      TrackedPartition& partition, uint32_t cell_index,
                      std::span<const VertexId> unit) {
  KSYM_CHECK(!unit.empty());
  KSYM_DCHECK(std::is_sorted(unit.begin(), unit.end()));

  std::vector<VertexId> copies;
  copies.reserve(unit.size());
  for (VertexId v : unit) {
    KSYM_DCHECK(partition.CellOf(v) == cell_index);
    const VertexId v_copy = delta.AddVertex();
    partition.AddCopy(v_copy, cell_index, v);
    copies.push_back(v_copy);
  }
  const auto copy_of = [&unit, &copies](VertexId u) {
    const auto it = std::lower_bound(unit.begin(), unit.end(), u);
    KSYM_CHECK(it != unit.end() && *it == u);
    return copies[static_cast<size_t>(it - unit.begin())];
  };

  for (size_t i = 0; i < unit.size(); ++i) {
    const VertexId v = unit[i];
    const VertexId v_copy = copies[i];
    const auto wire = [&](VertexId u) {
      if (partition.CellOf(u) != cell_index) {
        // Rule 1: the copy keeps the exact external adjacency.
        delta.AddEdge(u, v_copy);
      } else if (v < u) {
        // Rule 2: intra-unit edges are mirrored between the copies, added
        // once from the lower-indexed endpoint. Unit members are originals
        // and never gain in-cell neighbors (rule 1 only attaches copies of
        // *other* cells to them), so u is always in `unit`.
        delta.AddEdge(v_copy, copy_of(u));
      }
    };
    // No delta mutation inside `wire` touches v's own rows (u != v and
    // v_copy != v), so both spans stay valid across the loop.
    for (VertexId u : base.Neighbors(v)) wire(u);
    for (VertexId u : delta.added(v)) wire(u);
  }
}

}  // namespace

Result<ShardedAnonymizationResult> AnonymizeSharded(
    const ShardedGraph& graph, const ShardedAnonymizationOptions& options,
    const std::string& output_prefix) {
  if (!options.requirement && options.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  ExecutionContext local_context;
  const ExecutionContext* context =
      options.context != nullptr ? options.context : &local_context;

  const size_t n = graph.NumVertices();
  ShardedAnonymizationResult result;
  result.original_vertices = n;

  // Degree pass: the one whole-graph reduction the requirement functions
  // need, O(n) in memory.
  std::vector<size_t> degrees(n);
  for (VertexId v = 0; v < n; ++v) degrees[v] = graph.Degree(v);
  SymmetryRequirement requirement = options.requirement;
  if (!requirement && options.exclude_hubs_fraction > 0.0) {
    requirement = HubExclusionRequirement(
        options.k, DegreeThresholdForExcludedFraction(
                       degrees, options.exclude_hubs_fraction));
  }
  if (!requirement) requirement = KSymmetryRequirement(options.k);

  // Initial partition: TDV(G) through the sharded refinement seam.
  VertexPartition initial;
  {
    ScopedPhaseTimer timer(context, &RefinementStats::partition_seconds);
    initial =
        ShardedTotalDegreePartition(graph, context, &result.refinement_trace);
  }

  // Algorithm 1, replayed against (base, delta) — same per-cell walk as
  // AnonymizeWithPartition.
  ReleaseDelta delta(n);
  TrackedPartition partition(initial);
  {
    ScopedPhaseTimer copy_timer(context, &RefinementStats::copy_seconds);
    const size_t num_cells = initial.cells.size();
    for (uint32_t cell = 0; cell < num_cells; ++cell) {
      const std::vector<VertexId>& unit = initial.cells[cell];
      const size_t degree = degrees[unit.front()];
      const uint32_t required = requirement(unit, degree);
      if (required <= 1) {
        ++result.orbits_excluded;
        continue;
      }
      if (partition.Cell(cell).size() >= required) {
        ++result.orbits_satisfied;
        continue;
      }
      ++result.orbits_copied;
      while (partition.Cell(cell).size() < required) {
        const size_t edges_before = delta.added_edges();
        ShardedOrbitCopy(graph, delta, partition, cell, unit);
        ++result.copy_operations;
        result.vertices_added += unit.size();
        result.edges_added += delta.added_edges() - edges_before;
      }
    }
  }

  // Stream the released graph out as balanced vertex ranges: an original's
  // row is its base row (ids < n, already sorted) followed by its sorted
  // delta row (ids >= n); a copy's row is its sorted delta row. Ranges
  // ascend, so the base shards are read in file order once more.
  delta.SortRows();
  const size_t released_n = delta.NumVertices();
  const VertexPartition released = partition.ToVertexPartition();
  const std::vector<uint64_t> labels = ReleaseCsrLabels(released, n);

  const uint32_t output_shards =
      options.output_shards > 0 ? options.output_shards : graph.NumShards();
  const size_t chunk = (released_n + output_shards - 1) / output_shards;

  ShardSetWriter writer(output_prefix, released_n);
  std::vector<EdgeIndex> local_offsets;
  std::vector<VertexId> range_neighbors;
  for (size_t begin = 0; begin < released_n; begin += chunk) {
    const size_t end = std::min(released_n, begin + chunk);
    local_offsets.assign(1, 0);
    range_neighbors.clear();
    for (size_t v = begin; v < end; ++v) {
      if (v < n) {
        const std::span<const VertexId> base_row =
            graph.Neighbors(static_cast<VertexId>(v));
        range_neighbors.insert(range_neighbors.end(), base_row.begin(),
                               base_row.end());
      }
      const std::span<const VertexId> added =
          delta.added(static_cast<VertexId>(v));
      range_neighbors.insert(range_neighbors.end(), added.begin(),
                             added.end());
      local_offsets.push_back(range_neighbors.size());
    }
    KSYM_RETURN_IF_ERROR(writer.AppendShard(
        static_cast<VertexId>(begin), static_cast<VertexId>(end),
        local_offsets, range_neighbors,
        std::span<const uint64_t>(labels).subspan(begin, end - begin)));
  }
  KSYM_ASSIGN_OR_RETURN(result.manifest, writer.Finish());

  result.released_vertices = released_n;
  result.released_edges = graph.NumEdges() + delta.added_edges();
  result.refinement = context->stats();
  result.residency = graph.stats();
  return result;
}

}  // namespace ksym
