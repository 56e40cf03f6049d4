// Adversary benchmark harness: runs every attack model against a released
// graph and renders one deterministic report.
//
// The harness owns the *measurement and formatting* layer only — candidate
// set statistics, success rates, r_f/s_f — on top of the models in
// attack/sybil.h, attack/adjacency.h and attack/community.h. The pipeline
// that plants sybils, anonymizes and feeds the release back in lives at the
// serve/api layer (RunAttack), which keeps this library free of the
// anonymizer dependency.
//
// Report text is a `report` channel in the serve/api.h sense: pure facts,
// byte-identical across runs and thread counts (the golden-report test and
// the CI smoke `cmp` against it). Success rates are derived from integer
// counts, so the %.4f renderings are exactly reproducible. The passive
// measures run sequentially: their keys cost too little per vertex for a
// thread pool to pay off (DESIGN.md §8). Only the sybil recovery it
// reports on shards across threads.

#ifndef KSYM_ATTACK_HARNESS_H_
#define KSYM_ATTACK_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "attack/measures.h"
#include "attack/sybil.h"
#include "aut/orbits.h"
#include "graph/graph.h"

namespace ksym {

/// Per-vertex candidate-set size distribution of a measure partition: for
/// each vertex the adversary's candidate set is the vertex's cell, and a
/// uniform guess succeeds with probability 1/|cell|.
struct CandidateStats {
  size_t cells = 0;
  size_t min_size = 0;   // Smallest candidate set (0 on an empty graph).
  size_t max_size = 0;
  double mean_size = 0.0;       // Mean over vertices of |C(v)|.
  double success_rate = 0.0;    // Mean over vertices of 1/|C(v)| = cells/n.
  size_t under_k_vertices = 0;  // Vertices whose candidate set is < k.
};

CandidateStats ComputeCandidateStats(const VertexPartition& partition,
                                     uint32_t k);

/// Which passive measures the harness sweeps.
struct AttackHarnessOptions {
  uint32_t k = 2;       // The symmetry level the release claims.
  uint32_t max_ell = 3; // Adjacency sweep runs ℓ = 1..max_ell.
  uint32_t community_iterations = 4;
};

/// One row of the passive-attack table.
struct MeasureAttackRow {
  std::string name;
  CandidateStats candidates;
  double r_f = 0.0;
  double s_f = 0.0;
};

/// Evaluates the passive adversaries — the (k,ℓ)-adjacency sweep and the
/// community-signature measure — against `release`, scoring candidate sets
/// and r_f/s_f relative to `orbits` (the release's automorphism partition,
/// computed once by the caller).
std::vector<MeasureAttackRow> EvaluatePassiveAttacks(
    const Graph& release, const VertexPartition& orbits,
    const AttackHarnessOptions& options);

/// Renders the passive table (fixed-width, header + one row per measure).
std::string FormatPassiveSection(const std::vector<MeasureAttackRow>& rows,
                                 uint32_t k);

/// Renders the sybil section: embedding counts, candidate-set size range,
/// success probability and unique re-identifications. `label` distinguishes
/// the naive-release baseline from the anonymized release.
std::string FormatSybilSection(const char* label, const SybilPlan& plan,
                               const SybilAttackReport& report);

}  // namespace ksym

#endif  // KSYM_ATTACK_HARNESS_H_
