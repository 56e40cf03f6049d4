// Out-of-core k-symmetry anonymization: manifest in, anonymized shard set
// out (DESIGN.md §11).
//
// AnonymizeSharded runs the paper's Algorithm 1 end-to-end against a
// ShardedGraph without ever materializing the full graph:
//
//   1. One pass over the shards collects the exact per-vertex degree
//      array (the only whole-graph reduction the requirement functions
//      need).
//   2. The initial partition is TDV(G) via the sharded refinement seam
//      (shard/refine.h) — bit-identical cells and trace hash to the
//      in-memory run. The exact Orb(G) path needs the IR search's random
//      access and is not offered out-of-core.
//   3. Orbit copying replays Algorithm 1 exactly, recording the new
//      vertices and edges in a ReleaseDelta — O(n + added) vertex state —
//      while the original edge arrays stay on disk. Rule 1 only ever
//      attaches *copies* to existing vertices and rule 2 only connects
//      copies, so an original's base CSR row (all ids < n) plus its sorted
//      delta row (all ids >= n) is already its final sorted adjacency.
//   4. The released graph streams back out through ShardSetWriter as
//      balanced vertex-range shards with release-encoded labels
//      (ReleaseCsrLabels), plus a manifest.
//
// `ksym_shard merge` of the output is byte-identical to
// WriteReleaseCsrFile of the in-memory Anonymize run on the merged input —
// same CSR arrays (Freeze() sorts the same edge sets), same labels, same
// refinement trace — pinned by sharded_anonymize_test across shard counts
// and thread counts.

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
  double exclude_hubs_fraction = 0.0;
  /// Execution policy for the refinement. nullptr = sequential.
  const ExecutionContext* context = nullptr;
  /// Output shard count; 0 = same as the input shard set.
  uint32_t output_shards = 0;
};

struct ShardedAnonymizationResult {
  /// Manifest of the written output shard set.
  ShardManifest manifest;

  size_t original_vertices = 0;
  size_t released_vertices = 0;
  size_t released_edges = 0;

  // Same cost accounting as AnonymizationResult.
  size_t vertices_added = 0;
  size_t edges_added = 0;
  size_t copy_operations = 0;
  size_t orbits_copied = 0;
  size_t orbits_excluded = 0;
  size_t orbits_satisfied = 0;
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
