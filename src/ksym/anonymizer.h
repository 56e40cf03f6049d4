// The k-symmetry anonymization procedure (Algorithm 1) and its f-symmetry
// generalization (Definition 5, Section 5.2).
//
// Given a graph G and its automorphism partition Orb(G), each orbit smaller
// than its requirement f(orbit) is copied until the orbit together with its
// copies reaches the requirement. The output triple (G', V', |V(G)|) is
// exactly what the paper publishes: the anonymized graph, its
// sub-automorphism partition, and the original vertex count (used by the
// sampling algorithms to size their output).
//
// Every entry point — these two, AnonymizeMinimalVertices,
// AnonymizeSharded and ExactBackboneSample's regrow — plans its copies with
// the one per-cell walk below (CopyToRequirement) and emits the release with
// the one row emitter (ksym/orbit_copy.h).

#ifndef KSYM_KSYM_ANONYMIZER_H_
#define KSYM_KSYM_ANONYMIZER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "aut/orbits.h"
#include "common/parallel.h"
#include "common/status.h"
#include "graph/graph.h"
#include "ksym/orbit_copy.h"

namespace ksym {

/// Per-orbit anonymity requirement: given the orbit's members and the shared
/// degree of its vertices, returns the minimum size the augmented cell must
/// reach. Returning 1 excludes the orbit from protection.
using SymmetryRequirement = std::function<uint32_t(
    const std::vector<VertexId>& orbit, size_t degree)>;

/// The constant-k requirement of the basic model.
SymmetryRequirement KSymmetryRequirement(uint32_t k);

/// The hub-exclusion requirement of Section 5.2: orbits whose vertices have
/// degree > degree_threshold map to 1 (unprotected); all others to k.
SymmetryRequirement HubExclusionRequirement(uint32_t k,
                                            size_t degree_threshold);

/// Helper for the Figure 10/11 sweeps: the degree threshold that excludes
/// (approximately) the top `fraction` of vertices by descending degree.
/// Requires 0 <= fraction < 1 (callers validate user input first);
/// fraction = 0 excludes nothing (returns SIZE_MAX).
size_t DegreeThresholdForExcludedFraction(const Graph& graph, double fraction);

/// Same computation from a bare degree array — the out-of-core pipeline has
/// the degrees (one streaming pass) but never the resident Graph.
size_t DegreeThresholdForExcludedFraction(std::span<const size_t> degrees,
                                          double fraction);

struct AnonymizationOptions {
  uint32_t k = 2;
  /// If set, overrides k with a general f-symmetry requirement.
  SymmetryRequirement requirement;
  /// Use TDV(G) instead of the exact Orb(G) as the initial partition
  /// (Section 7's scalable approximation; valid whenever TDV(G) = Orb(G),
  /// which the paper reports for all their real networks).
  bool use_total_degree_partition = false;
  /// Execution policy for the partition computation and the pipeline's
  /// phase timers. nullptr = sequential; the result's RefinementStats are
  /// then scoped to this call. With a caller-owned context, the stats
  /// accumulate into (and the result snapshot includes) that context.
  const ExecutionContext* context = nullptr;
};

/// Algorithm 1's cost accounting (Figure 10 and the complexity discussion
/// of Section 3.3), shared by the in-memory and sharded results.
struct CopyCosts {
  size_t vertices_added = 0;
  size_t edges_added = 0;
  size_t copy_operations = 0;
  size_t orbits_copied = 0;
  size_t orbits_excluded = 0;   // Requirement 1 (hub exclusion).
  size_t orbits_satisfied = 0;  // Already >= requirement, nothing to do.
};

struct AnonymizationResult : CopyCosts {
  /// The anonymized graph G' (a supergraph of G: original ids unchanged).
  Graph graph;
  /// The released sub-automorphism partition V' of G'.
  VertexPartition partition;
  /// |V(G)| — released alongside G' for the sampling algorithms.
  size_t original_vertices = 0;

  /// Refinement-pipeline cost accounting, populated from the execution
  /// context's timers (refine calls, cells split, wall time per phase) so
  /// callers stop re-deriving cost from scratch.
  RefinementStats refinement;

  /// Trace hash of the initial-partition refinement when the TDV path ran
  /// (0 for the exact-orbit path, whose search performs many refines, and
  /// for a caller-supplied partition). The sharded pipeline must reproduce
  /// this bit-exactly.
  uint64_t refinement_trace = 0;
};

/// Anonymizes `graph` to satisfy the requirement (k-symmetry by default).
/// Computes the initial partition internally.
Result<AnonymizationResult> Anonymize(const Graph& graph,
                                      const AnonymizationOptions& options);

/// As above but with a caller-supplied initial sub-automorphism partition
/// (Algorithm 1's actual signature). The caller is responsible for the
/// partition really being a sub-automorphism partition of `graph`.
Result<AnonymizationResult> AnonymizeWithPartition(
    const Graph& graph, const VertexPartition& initial,
    const AnonymizationOptions& options);

// ---------------------------------------------------------------------------
// The shared Algorithm 1 machinery behind the entry points above, minimal.h,
// sharded_anonymizer.h and sampling.h. Not a separate algorithm: callers
// outside ksym/ use the entry points.
// ---------------------------------------------------------------------------

/// Chooses the Ocp unit of a cell Algorithm 1 must copy: a sorted subset of
/// the cell's members in `initial`, closed under intra-cell adjacency. An
/// empty chooser copies whole cells.
using CopyUnitChooser = std::function<std::vector<VertexId>(
    const VertexPartition& initial, uint32_t cell)>;

/// Algorithm 1's per-cell walk, as a plan. Each cell of `initial`, in
/// order, is excluded (requirement from the cell and its degree in `base`
/// <= 1), already satisfied, or planned the copy steps of its unit that
/// bring it to the requirement. The counts but `edges_added` add to `costs`.
/// InvalidArgument when the release's ids would not fit VertexId.
template <typename Base>
Result<CopyPlan> CopyToRequirement(const Base& base,
                                   const VertexPartition& initial,
                                   const SymmetryRequirement& requirement,
                                   const CopyUnitChooser& unit_of,
                                   CopyCosts& costs) {
  CopyPlan plan(initial);
  std::vector<VertexId> chosen;
  for (uint32_t cell = 0; cell < initial.cells.size(); ++cell) {
    // The vertices of one orbit all share the same degree, so any member's
    // degree represents the orbit.
    const std::vector<VertexId>& orbit = initial.cells[cell];
    const uint32_t required = requirement(orbit, base.Degree(orbit.front()));
    if (required <= 1 || orbit.size() >= required) {
      ++(required <= 1 ? costs.orbits_excluded : costs.orbits_satisfied);
      continue;
    }
    ++costs.orbits_copied;
    if (unit_of) chosen = unit_of(initial, cell);
    const std::span<const VertexId> unit = unit_of ? chosen : orbit;
    // Each Ocp adds |unit| vertices to the cell.
    const uint64_t steps =
        (required - orbit.size() + unit.size() - 1) / unit.size();
    KSYM_RETURN_IF_ERROR(plan.AddCell(cell, unit, steps));
    costs.copy_operations += steps;
    costs.vertices_added += steps * unit.size();
  }
  return plan;
}

/// Algorithm 1 on an in-memory graph: validates the options, computes the
/// initial partition `options` selects when `initial` is null (recording
/// the TDV trace hash), plans with CopyToRequirement and `unit_of`, and
/// emits the release.
Result<AnonymizationResult> AnonymizeInMemory(
    const Graph& graph, const VertexPartition* initial,
    const AnonymizationOptions& options, const CopyUnitChooser& unit_of);

}  // namespace ksym

#endif  // KSYM_KSYM_ANONYMIZER_H_
