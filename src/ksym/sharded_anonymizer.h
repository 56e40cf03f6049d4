// Out-of-core k-symmetry anonymization: manifest in, anonymized shard set
// out (DESIGN.md §11).
//
// AnonymizeSharded runs the paper's Algorithm 1 end-to-end against a
// ShardedGraph without ever materializing the full graph:
//
//   1. The requirement: when hubs are excluded, one pass over the shards
//      collects the exact per-vertex degree array for the threshold.
//   2. The initial partition is TDV(G) via the sharded refinement seam
//      (shard/refine.h) — bit-identical cells and trace hash to the
//      in-memory run. The exact Orb(G) path needs the IR search's random
//      access and is not offered out-of-core.
//   3. The copies are the one Algorithm 1 plan (CopyToRequirement) over
//      the shard set, and the one row emitter (ReleaseRows) reads the base
//      shards twice more for the released degrees and every vertex's
//      copied neighbours: O(n + m) state, whatever the number of copies.
//   4. The released graph streams back out through ShardSetWriter as
//      balanced vertex-range shards with release-encoded labels (as
//      ReleaseCsrLabels encodes them), plus a manifest. Each range's rows
//      come from the emitter that builds the in-memory release.
//
// `ksym_shard merge` of the output is therefore byte-identical to
// WriteReleaseCsrFile of the in-memory Anonymize run on the merged input —
// same code for every CSR row, same labels, same refinement trace — pinned
// by sharded_anonymize_test across shard counts and thread counts.

#ifndef KSYM_KSYM_SHARDED_ANONYMIZER_H_
#define KSYM_KSYM_SHARDED_ANONYMIZER_H_

#include <cstdint>
#include <string>

#include "common/parallel.h"
#include "common/status.h"
#include "ksym/anonymizer.h"
#include "shard/manifest.h"
#include "shard/sharded_graph.h"

namespace ksym {

struct ShardedAnonymizationOptions {
  uint32_t k = 2;
  /// If set, overrides k with a general f-symmetry requirement.
  SymmetryRequirement requirement;
  /// Convenience for Section 5.2: > 0 builds a HubExclusionRequirement
  /// excluding the top fraction by degree (ignored when `requirement` set).
  /// Must lie in [0, 1); anything else is InvalidArgument.
  double exclude_hubs_fraction = 0.0;
  /// Execution policy for the refinement. nullptr = sequential.
  const ExecutionContext* context = nullptr;
  /// Output shard count; 0 = same as the input shard set.
  uint32_t output_shards = 0;
};

struct ShardedAnonymizationResult : CopyCosts {
  /// Manifest of the written output shard set.
  ShardManifest manifest;

  size_t original_vertices = 0;
  size_t released_vertices = 0;
  size_t released_edges = 0;

  RefinementStats refinement;
  uint64_t refinement_trace = 0;

  /// The input shard set's mappings (ShardedGraph::stats()).
  ShardResidencyStats residency;
};

/// Anonymizes the shard set behind `graph`, writing the released graph as
/// `<output_prefix>.<i>.ksymcsr` shards plus `<output_prefix>.manifest`.
/// Uses the TDV initial partition (Section 7).
Result<ShardedAnonymizationResult> AnonymizeSharded(
    const ShardedGraph& graph, const ShardedAnonymizationOptions& options,
    const std::string& output_prefix);

}  // namespace ksym

#endif  // KSYM_KSYM_SHARDED_ANONYMIZER_H_
