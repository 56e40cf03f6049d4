// Serialization of the release triple (G', V', |V(G)|).
//
// The paper's publisher hands analysts three things: the anonymized graph,
// its sub-automorphism partition, and the original vertex count (Section
// 4.2.1). This module defines a simple line-oriented text format for the
// triple so the publisher and analyst can be separate processes (see the
// ksym_anonymize / ksym_sample command-line tools):
//
//   # ksym-release 1
//   original <n>
//   vertices <|V'|>
//   edge <u> <v>          (one per undirected edge)
//   cell <v1> <v2> ...    (one per partition cell)
//
// Lines starting with '#' are comments; sections may be interleaved but the
// header must come first.

#ifndef KSYM_KSYM_RELEASE_IO_H_
#define KSYM_KSYM_RELEASE_IO_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "ksym/anonymizer.h"

namespace ksym {

/// The analyst-visible part of an AnonymizationResult.
struct ReleaseTriple {
  Graph graph;
  VertexPartition partition;
  size_t original_vertices = 0;
};

/// Extracts the release triple from an anonymization result: moves it out
/// of an rvalue, copies an lvalue.
ReleaseTriple MakeReleaseTriple(AnonymizationResult result);

/// Approximate heap footprint of a materialized release triple — what the
/// daemon's caches charge for one: the CSR arrays plus the partition
/// (cell_of + the cells' vertex lists, which together hold 2n entries).
size_t ApproxReleaseBytes(const ReleaseTriple& release);

Status WriteRelease(const ReleaseTriple& release, std::ostream& out);
Status WriteReleaseFile(const ReleaseTriple& release, const std::string& path);

/// Parses and validates a release: the partition must cover the vertex set
/// exactly once.
Result<ReleaseTriple> ReadRelease(std::istream& in);
Result<ReleaseTriple> ReadReleaseFile(const std::string& path);

// ---------------------------------------------------------------------------
// Binary releases (.ksymcsr).
// ---------------------------------------------------------------------------
//
// A release triple also round-trips through the binary CSR format: G' is
// the graph, and the per-vertex labels encode the remaining two components
// as label[v] = (cell_of[v] << 1) | is_copy, where is_copy marks vertices
// beyond the original count. Originals are exactly [0, |V(G)|) (the
// anonymizer only appends), so |V(G)| is recovered as the first flagged
// vertex. This is the format the sharded anonymizer emits per shard —
// `ksym_shard merge` of its output is byte-identical to
// WriteReleaseCsrFile of the in-memory run.

/// The label array described above; partition.cell_of must cover the
/// release's vertices, original_vertices of which are originals.
std::vector<uint64_t> ReleaseCsrLabels(const VertexPartition& partition,
                                       size_t original_vertices);

Status WriteReleaseCsrFile(const ReleaseTriple& release,
                           const std::string& path);

/// Loads a binary release, rebuilding the partition and original count from
/// the label encoding. Rejects label streams that are not a valid encoding
/// (non-contiguous copy flags, cell ids out of range, non-covering cells).
Result<ReleaseTriple> ReadReleaseCsrFile(const std::string& path);

/// Auto-detecting release load: .ksymcsr by magic, else the text format.
Result<ReleaseTriple> ReadReleaseAuto(const std::string& path);

}  // namespace ksym

#endif  // KSYM_KSYM_RELEASE_IO_H_
