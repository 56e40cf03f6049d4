#include "dyn/delta_graph.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace ksym {
namespace dyn {

namespace {

// Sorted-vector membership / insert / erase helpers for the overlays. The
// overlays stay tiny between compactions, so O(log) find + O(size) shift
// beats any node container on locality.
bool SortedContains(const std::vector<VertexId>& v, VertexId x) {
  return std::binary_search(v.begin(), v.end(), x);
}

void SortedInsert(std::vector<VertexId>& v, VertexId x) {
  v.insert(std::lower_bound(v.begin(), v.end(), x), x);
}

void SortedErase(std::vector<VertexId>& v, VertexId x) {
  v.erase(std::lower_bound(v.begin(), v.end(), x));
}

std::string EditName(size_t index, const Edit& e) {
  std::ostringstream os;
  os << "edit " << index << " (" << (e.insert ? "add " : "del ") << e.u << " "
     << e.v << ")";
  return os.str();
}

// Canonical undirected key for duplicate detection within a batch.
uint64_t EdgeKey(VertexId u, VertexId v) {
  const VertexId lo = std::min(u, v);
  const VertexId hi = std::max(u, v);
  return (uint64_t{lo} << 32) | hi;
}

}  // namespace

std::vector<VertexId> EditBatch::Endpoints() const {
  std::vector<VertexId> out;
  out.reserve(edits_.size() * 2);
  for (const Edit& e : edits_) {
    out.push_back(e.u);
    out.push_back(e.v);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

DeltaGraph::DeltaGraph(Graph base)
    : base_(std::move(base)), num_edges_(base_.NumEdges()) {}

Status DeltaGraph::Validate(const EditBatch& batch) const {
  const size_t n = NumVertices();
  std::vector<uint64_t> keys;
  keys.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const Edit& e = batch.edits()[i];
    if (e.u == e.v) {
      return Status::InvalidArgument(EditName(i, e) +
                                     ": self-loops are not allowed");
    }
    if (e.u >= n || e.v >= n) {
      return Status::OutOfRange(EditName(i, e) + ": endpoint out of range (n=" +
                                std::to_string(n) + ")");
    }
    keys.push_back(EdgeKey(e.u, e.v));
  }
  std::vector<uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  if (dup != sorted.end()) {
    for (size_t i = 0; i < batch.size(); ++i) {
      if (keys[i] == *dup) {
        const Edit& e = batch.edits()[i];
        return Status::InvalidArgument(
            EditName(i, e) + ": edge {" + std::to_string(e.u) + "," +
            std::to_string(e.v) + "} is edited twice in the batch");
      }
    }
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    const Edit& e = batch.edits()[i];
    const bool present = HasEdge(e.u, e.v);
    if (!e.insert && !present) {
      return Status::NotFound(EditName(i, e) +
                              ": edge is absent from the graph");
    }
    if (e.insert && present) {
      return Status::InvalidArgument(EditName(i, e) +
                                     ": edge is already present");
    }
  }
  return Status::Ok();
}

Status DeltaGraph::Apply(const EditBatch& batch) {
  KSYM_RETURN_IF_ERROR(Validate(batch));
  if (added_.empty()) {
    added_.resize(NumVertices());
    removed_.resize(NumVertices());
  }
  // Apply one direction of one edit: mutate the (added, removed) overlay
  // pair so the merged view gains/loses neighbour w of v.
  const auto apply_arc = [this](VertexId v, VertexId w, bool insert) {
    if (insert) {
      if (SortedContains(removed_[v], w)) {
        SortedErase(removed_[v], w);  // Re-insert of a base edge: unmask.
        --overlay_entries_;
      } else {
        SortedInsert(added_[v], w);
        ++overlay_entries_;
      }
    } else {
      if (SortedContains(added_[v], w)) {
        SortedErase(added_[v], w);  // Delete of an overlay insert: cancel.
        --overlay_entries_;
      } else {
        SortedInsert(removed_[v], w);  // Mask a base edge.
        ++overlay_entries_;
      }
    }
  };
  for (const Edit& e : batch.edits()) {
    apply_arc(e.u, e.v, e.insert);
    apply_arc(e.v, e.u, e.insert);
    num_edges_ += e.insert ? 1 : -1;
  }
  return Status::Ok();
}

bool DeltaGraph::HasEdge(VertexId u, VertexId v) const {
  if (!added_.empty()) {
    if (SortedContains(added_[u], v)) return true;
    if (SortedContains(removed_[u], v)) return false;
  }
  return base_.HasEdge(u, v);
}

std::vector<VertexId> DeltaGraph::NeighborsOf(VertexId v) const {
  std::vector<VertexId> out;
  out.reserve(DegreeOf(v));
  ForEachNeighbor(v, [&out](VertexId w) { out.push_back(w); });
  return out;
}

double DeltaGraph::OverlayRatio() const {
  const size_t base_arcs = 2 * base_.NumEdges();
  if (base_arcs == 0) return overlay_entries_ == 0 ? 0.0 : 1.0;
  return static_cast<double>(overlay_entries_) /
         static_cast<double>(base_arcs);
}

Graph DeltaGraph::Compact() const {
  const size_t n = NumVertices();
  std::vector<EdgeIndex> offsets(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + DegreeOf(v);
  }
  std::vector<VertexId> neighbors(offsets[n]);
  for (VertexId v = 0; v < n; ++v) {
    EdgeIndex pos = offsets[v];
    ForEachNeighbor(v, [&neighbors, &pos](VertexId w) {
      neighbors[pos++] = w;
    });
  }
  return Graph::FromCsr(std::move(offsets), std::move(neighbors));
}

void DeltaGraph::CompactInPlace() {
  if (!HasOverlay()) {
    // Still re-own a borrowed base so the caller can drop the mapping.
    if (added_.empty()) return;
    added_.clear();
    removed_.clear();
    return;
  }
  base_ = Compact();
  added_.clear();
  removed_.clear();
  overlay_entries_ = 0;
}

uint64_t DeltaGraph::ContentChecksum() const {
  uint64_t h = HashCombine(0x6B73796D64796E00ull, NumVertices());
  for (VertexId v = 0; v < NumVertices(); ++v) {
    h = HashCombine(h, DegreeOf(v));
    ForEachNeighbor(v, [&h](VertexId w) { h = HashCombine(h, w); });
  }
  return h;
}

uint64_t GraphContentChecksum(const Graph& graph) {
  uint64_t h = HashCombine(0x6B73796D64796E00ull, graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    const auto nv = graph.Neighbors(v);
    h = HashCombine(h, nv.size());
    for (VertexId w : nv) h = HashCombine(h, w);
  }
  return h;
}

}  // namespace dyn
}  // namespace ksym
