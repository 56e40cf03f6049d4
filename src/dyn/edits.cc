#include "dyn/edits.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <utility>

namespace ksym {
namespace dyn {

namespace {

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

// Splits on whitespace; total (any bytes in, tokens out).
std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

// Strict uint32 parse: digits only, no overflow.
bool ParseVertex(std::string_view tok, VertexId* out) {
  if (tok.empty() || tok.size() > 10) return false;
  uint64_t value = 0;
  for (char c : tok) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  if (value > 0xFFFFFFFFull) return false;
  *out = static_cast<VertexId>(value);
  return true;
}

// Parses one `add U V` / `del U V` directive from its tokens; `where`
// names the location for error messages.
Status ParseEditTokens(const std::vector<std::string_view>& tokens,
                       const std::string& where, EditBatch* batch) {
  const std::string_view op = tokens[0];
  if (op != "add" && op != "del") {
    return Status::InvalidArgument(where + ": unknown directive '" +
                                   std::string(op) +
                                   "' (want add/del/epoch)");
  }
  if (tokens.size() != 3) {
    return Status::InvalidArgument(where + ": '" + std::string(op) +
                                   "' takes exactly two vertex ids");
  }
  VertexId u = 0;
  VertexId v = 0;
  if (!ParseVertex(tokens[1], &u) || !ParseVertex(tokens[2], &v)) {
    return Status::InvalidArgument(where + ": vertex ids must be decimal " +
                                   "integers in [0, 2^32)");
  }
  batch->Add({u, v, op == "add"});
  return Status::Ok();
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

Status ValidateEdits(const Graph& graph, const EditBatch& batch) {
  const size_t n = graph.NumVertices();
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
    const bool present = graph.HasEdge(e.u, e.v);
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

Result<Graph> ApplyEdits(const Graph& graph, const EditBatch& batch) {
  KSYM_RETURN_IF_ERROR(ValidateEdits(graph, batch));
  // Both arcs of every edit, sorted by (tail, head): each vertex's inserted
  // and deleted neighbours as ascending runs, consumed in step with its
  // sorted CSR range. Validation guarantees every inserted head is absent
  // from that range and every deleted head is in it.
  using Arc = std::pair<VertexId, VertexId>;
  std::vector<Arc> added;
  std::vector<Arc> removed;
  for (const Edit& e : batch.edits()) {
    std::vector<Arc>& arcs = e.insert ? added : removed;
    arcs.push_back({e.u, e.v});
    arcs.push_back({e.v, e.u});
  }
  std::sort(added.begin(), added.end());
  std::sort(removed.begin(), removed.end());

  const size_t n = graph.NumVertices();
  std::vector<EdgeIndex> offsets(n + 1, 0);
  std::vector<VertexId> neighbors;
  neighbors.reserve(2 * graph.NumEdges() + added.size() - removed.size());
  size_t ai = 0;
  size_t ri = 0;
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId w : graph.Neighbors(v)) {
      while (ai < added.size() && added[ai].first == v &&
             added[ai].second < w) {
        neighbors.push_back(added[ai++].second);
      }
      if (ri < removed.size() && removed[ri] == Arc{v, w}) {
        ++ri;
        continue;
      }
      neighbors.push_back(w);
    }
    while (ai < added.size() && added[ai].first == v) {
      neighbors.push_back(added[ai++].second);
    }
    offsets[v + 1] = neighbors.size();
  }
  return Graph::FromCsr(std::move(offsets), std::move(neighbors));
}

Result<std::vector<EditBatch>> ParseEditTrace(std::string_view text) {
  std::vector<EditBatch> epochs;
  EditBatch current;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    const std::vector<std::string_view> tokens = Tokenize(line);
    if (tokens.empty() || tokens[0].front() == '#') continue;
    const std::string where = "line " + std::to_string(line_no);
    if (tokens[0] == "epoch") {
      if (tokens.size() != 1) {
        return Status::InvalidArgument(where + ": 'epoch' takes no operands");
      }
      if (current.empty()) {
        return Status::InvalidArgument(where + ": empty epoch (no edits " +
                                       "since the previous one)");
      }
      epochs.push_back(std::move(current));
      current.clear();
      continue;
    }
    KSYM_RETURN_IF_ERROR(ParseEditTokens(tokens, where, &current));
  }
  if (!current.empty()) {
    return Status::InvalidArgument(
        "trace ends with " + std::to_string(current.size()) +
        " uncommitted edit(s); close the final batch with 'epoch'");
  }
  return epochs;
}

Result<std::vector<EditBatch>> ParseEditTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open edit trace: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed: " + path);
  return ParseEditTrace(buffer.str());
}

Result<EditBatch> ParseEditList(std::string_view text) {
  EditBatch batch;
  size_t item_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t sep = text.find(';', pos);
    const std::string_view item =
        text.substr(pos, sep == std::string_view::npos ? std::string_view::npos
                                                       : sep - pos);
    pos = sep == std::string_view::npos ? text.size() + 1 : sep + 1;
    ++item_no;
    const std::vector<std::string_view> tokens = Tokenize(item);
    if (tokens.empty()) {
      if (text.empty()) break;  // "" is an empty batch; ";;" is not.
      return Status::InvalidArgument("edit item " + std::to_string(item_no) +
                                     " is empty");
    }
    KSYM_RETURN_IF_ERROR(
        ParseEditTokens(tokens, "edit item " + std::to_string(item_no),
                        &batch));
  }
  return batch;
}

std::string FormatEditList(const EditBatch& batch) {
  std::ostringstream os;
  bool first = true;
  for (const Edit& e : batch.edits()) {
    if (!first) os << ';';
    first = false;
    os << (e.insert ? "add " : "del ") << e.u << ' ' << e.v;
  }
  return os.str();
}

}  // namespace dyn
}  // namespace ksym
