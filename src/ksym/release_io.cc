#include "ksym/release_io.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "common/str.h"
#include "graph/io.h"

namespace ksym {

ReleaseTriple MakeReleaseTriple(AnonymizationResult result) {
  return ReleaseTriple{std::move(result.graph), std::move(result.partition),
                       result.original_vertices};
}

size_t ApproxReleaseBytes(const ReleaseTriple& release) {
  const size_t n = release.graph.NumVertices();
  const size_t entries = release.graph.NumEdges() * 2;
  return (n + 1) * sizeof(EdgeIndex) + entries * sizeof(VertexId) +
         n * sizeof(uint32_t) + n * sizeof(VertexId) +
         release.partition.cells.size() * sizeof(std::vector<VertexId>);
}

Status WriteRelease(const ReleaseTriple& release, std::ostream& out) {
  out << "# ksym-release 1\n";
  out << "original " << release.original_vertices << "\n";
  out << "vertices " << release.graph.NumVertices() << "\n";
  for (const auto& [u, v] : release.graph.Edges()) {
    out << "edge " << u << ' ' << v << "\n";
  }
  for (const auto& cell : release.partition.cells) {
    out << "cell";
    for (VertexId v : cell) out << ' ' << v;
    out << "\n";
  }
  if (!out) return Status::IoError("write failed");
  return Status::Ok();
}

Status WriteReleaseFile(const ReleaseTriple& release,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  return WriteRelease(release, out);
}

Result<ReleaseTriple> ReadRelease(std::istream& in) {
  ReleaseTriple release;
  bool have_header = false;
  bool have_original = false;
  bool have_vertices = false;
  size_t num_vertices = 0;
  GraphBuilder builder;
  std::vector<std::vector<VertexId>> cells;

  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view stripped = StripAsciiWhitespace(line);
    if (stripped.empty()) continue;
    if (stripped[0] == '#') {
      if (!have_header) {
        if (stripped.rfind("# ksym-release", 0) != 0) {
          return Status::IoError("missing ksym-release header");
        }
        have_header = true;
      }
      continue;
    }
    if (!have_header) return Status::IoError("missing ksym-release header");

    const auto fields = SplitWhitespace(stripped);
    const std::string_view keyword = fields[0];
    auto parse_field = [&](size_t index, uint64_t* value) {
      return index < fields.size() && ParseUint64(fields[index], value);
    };
    if (keyword == "original") {
      uint64_t n = 0;
      if (!parse_field(1, &n)) {
        return Status::IoError(StrFormat("line %zu: bad original", line_no));
      }
      release.original_vertices = n;
      have_original = true;
    } else if (keyword == "vertices") {
      uint64_t n = 0;
      if (!parse_field(1, &n)) {
        return Status::IoError(StrFormat("line %zu: bad vertices", line_no));
      }
      num_vertices = n;
      builder.EnsureVertices(num_vertices);
      have_vertices = true;
    } else if (keyword == "edge") {
      uint64_t u = 0;
      uint64_t v = 0;
      if (!parse_field(1, &u) || !parse_field(2, &v)) {
        return Status::IoError(StrFormat("line %zu: bad edge", line_no));
      }
      builder.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
    } else if (keyword == "cell") {
      std::vector<VertexId> cell;
      for (size_t i = 1; i < fields.size(); ++i) {
        uint64_t v = 0;
        if (!ParseUint64(fields[i], &v)) {
          return Status::IoError(StrFormat("line %zu: bad cell", line_no));
        }
        cell.push_back(static_cast<VertexId>(v));
      }
      if (cell.empty()) {
        return Status::IoError(StrFormat("line %zu: empty cell", line_no));
      }
      cells.push_back(std::move(cell));
    } else {
      return Status::IoError(StrFormat("line %zu: unknown keyword '%s'",
                                       line_no,
                                       std::string(keyword).c_str()));
    }
  }
  if (!have_header || !have_original || !have_vertices) {
    return Status::IoError("incomplete release: header/original/vertices");
  }
  release.graph = builder.Build();
  if (release.graph.NumVertices() != num_vertices) {
    return Status::IoError("edge endpoints exceed declared vertex count");
  }

  // Validate the partition: exact cover of [0, vertices).
  std::vector<bool> seen(num_vertices, false);
  for (const auto& cell : cells) {
    for (VertexId v : cell) {
      if (v >= num_vertices || seen[v]) {
        return Status::IoError("cells must cover each vertex exactly once");
      }
      seen[v] = true;
    }
  }
  for (bool s : seen) {
    if (!s) return Status::IoError("cells must cover every vertex");
  }
  release.partition =
      VertexPartition::FromCells(num_vertices, std::move(cells));
  if (release.original_vertices > num_vertices) {
    return Status::IoError("original vertex count exceeds released size");
  }
  return release;
}

Result<ReleaseTriple> ReadReleaseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return ReadRelease(in);
}

std::vector<uint64_t> ReleaseCsrLabels(const VertexPartition& partition,
                                       size_t original_vertices) {
  std::vector<uint64_t> labels(partition.cell_of.size());
  for (size_t v = 0; v < labels.size(); ++v) {
    labels[v] = (uint64_t{partition.cell_of[v]} << 1) |
                (v >= original_vertices ? 1u : 0u);
  }
  return labels;
}

Status WriteReleaseCsrFile(const ReleaseTriple& release,
                           const std::string& path) {
  return WriteCsrFile(
      release.graph,
      ReleaseCsrLabels(release.partition, release.original_vertices), path);
}

Result<ReleaseTriple> ReadReleaseCsrFile(const std::string& path) {
  KSYM_ASSIGN_OR_RETURN(LoadedGraph loaded, ReadCsrFile(path));
  const size_t n = loaded.graph.NumVertices();
  ReleaseTriple release;

  // Originals are the unflagged prefix; the flag must be monotone.
  size_t originals = n;
  for (size_t v = 0; v < n; ++v) {
    if (loaded.labels[v] & 1) {
      originals = v;
      break;
    }
  }
  size_t num_cells = 0;
  for (size_t v = 0; v < n; ++v) {
    if ((loaded.labels[v] & 1) != (v >= originals ? 1u : 0u)) {
      return Status::IoError(StrFormat(
          "%s: not a release: copy flags are not a contiguous suffix",
          path.c_str()));
    }
    const uint64_t cell = loaded.labels[v] >> 1;
    if (cell >= n) {
      return Status::IoError(StrFormat(
          "%s: not a release: vertex %zu has cell id %llu out of range",
          path.c_str(), v, static_cast<unsigned long long>(cell)));
    }
    num_cells = std::max(num_cells, static_cast<size_t>(cell) + 1);
  }
  std::vector<std::vector<VertexId>> cells(num_cells);
  for (size_t v = 0; v < n; ++v) {
    cells[loaded.labels[v] >> 1].push_back(static_cast<VertexId>(v));
  }
  for (size_t c = 0; c < cells.size(); ++c) {
    if (cells[c].empty()) {
      return Status::IoError(StrFormat("%s: not a release: cell %zu is empty",
                                       path.c_str(), c));
    }
    // Cells must already sit in VertexPartition order (ascending minima):
    // that is what every writer emits, and it keeps read(write(x)) == x.
    if (c > 0 && cells[c].front() < cells[c - 1].front()) {
      return Status::IoError(StrFormat(
          "%s: not a release: cell ids not in min-element order",
          path.c_str()));
    }
  }
  release.partition = VertexPartition::FromCells(n, std::move(cells));
  release.graph = std::move(loaded.graph);
  release.original_vertices = originals;
  return release;
}

Result<ReleaseTriple> ReadReleaseAuto(const std::string& path) {
  return IsCsrFile(path) ? ReadReleaseCsrFile(path) : ReadReleaseFile(path);
}

}  // namespace ksym
