// Edit batches over a CSR graph (DESIGN.md §15): the edit types, their
// validation ladder, the CSR rebuild a commit performs, and their text
// forms.
//
// EditBatch is the unit of mutation. ValidateEdits checks a batch against a
// graph without mutating anything — self-loops, endpoints out of range,
// duplicate edits, delete-of-absent (and insert-of-present) — and names the
// first offending edit. ApplyEdits validates, then rebuilds the CSR once in
// O(n + m + e log e), so a rejected batch never produces a graph.
//
// Two text formats, both total parsers (malformed bytes return a Status
// naming the offending line/token, never crash — fuzz-pinned in dyn_test):
//
//  * The *trace* format, one directive per line, consumed by the
//    `ksym_dynamic` replay CLI:
//        # comment (blank lines ignored)
//        add U V
//        del U V
//        epoch          <- commit the batch accumulated so far
//    A trailing non-empty batch without a closing `epoch` is an error (a
//    truncated trace should not silently drop edits).
//
//  * The *wire* form, a single ';'-separated string ("add 1 2;del 0 3")
//    carried in one scalar JSON field of the daemon's `mutate` op — the
//    wire format (serve/wire.h) is flat scalars only, so batches travel as
//    one string.
//
// Parsing only builds EditBatch values; semantic validation (range,
// presence, duplicates) is ValidateEdits.

#ifndef KSYM_DYN_EDITS_H_
#define KSYM_DYN_EDITS_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace ksym {
namespace dyn {

/// One edge edit. Undirected: {u, v} and {v, u} are the same edit.
struct Edit {
  VertexId u = 0;
  VertexId v = 0;
  bool insert = true;  // false = delete.

  friend bool operator==(const Edit& a, const Edit& b) {
    return a.u == b.u && a.v == b.v && a.insert == b.insert;
  }
};

/// An ordered list of edits applied atomically by ApplyEdits.
class EditBatch {
 public:
  void Insert(VertexId u, VertexId v) { edits_.push_back({u, v, true}); }
  void Delete(VertexId u, VertexId v) { edits_.push_back({u, v, false}); }
  void Add(const Edit& edit) { edits_.push_back(edit); }

  bool empty() const { return edits_.empty(); }
  size_t size() const { return edits_.size(); }
  std::span<const Edit> edits() const { return edits_; }
  void clear() { edits_.clear(); }

  /// Sorted, duplicate-free endpoint set: the vertices this batch
  /// touches.
  std::vector<VertexId> Endpoints() const;

 private:
  std::vector<Edit> edits_;
};

/// Checks `batch` against `graph` without mutating: the full ladder, in
/// order — self-loop, endpoint out of range, duplicate edit in the batch,
/// delete-of-absent / insert-of-present. The first offending edit is named
/// (index + endpoints) in the status.
Status ValidateEdits(const Graph& graph, const EditBatch& batch);

/// ValidateEdits, then a fresh owning CSR of `graph` with `batch` applied;
/// vertex ids are unchanged.
Result<Graph> ApplyEdits(const Graph& graph, const EditBatch& batch);

/// Parses the trace format: one EditBatch per `epoch` directive, in order.
Result<std::vector<EditBatch>> ParseEditTrace(std::string_view text);

/// ParseEditTrace over a file's bytes.
Result<std::vector<EditBatch>> ParseEditTraceFile(const std::string& path);

/// Parses the wire form: ';'-separated `add U V` / `del U V` items. An
/// empty string is an empty batch.
Result<EditBatch> ParseEditList(std::string_view text);

/// Inverse of ParseEditList (round-trips exactly).
std::string FormatEditList(const EditBatch& batch);

}  // namespace dyn
}  // namespace ksym

#endif  // KSYM_DYN_EDITS_H_
