// Active sybil-subgraph attack (Mauw, Ramírez-Cruz & Trujillo-Rasua 2020).
//
// The adversary acts *before* publication: it injects a small set of sybil
// accounts into the network, wires them into a distinctive internal pattern
// (a path spine plus seed-chosen chords, so the subgraph is cheap to search
// for and rarely symmetric), and connects each target vertex to a unique
// subset of the sybils — the target's *fingerprint*. After the publisher
// anonymizes and releases the graph, the adversary (1) searches the release
// for every embedding of its sybil pattern and (2) reads each target's
// candidate set off the fingerprints: the vertices whose adjacency to an
// embedded sybil set matches the fingerprint exactly.
//
// Against k-symmetry the attack is provably blunted: the sybils are part of
// the graph when it is anonymized, so every automorphic image of the
// planted subgraph is also a valid embedding, and the candidate set of each
// target is a superset of the target's orbit in the release — at least k
// vertices (the attack_harness_test and property_test suites assert this).
// Against a naive release, fingerprint uniqueness typically pins every
// target exactly; the harness reports both regimes' success rates.
//
// Recovery is one depth-first search per anchor (the release vertex placed
// at pattern position 0). Each search keeps, per release vertex, a bitmask
// of its adjacency to the vertices assigned so far, so the induced-adjacency
// test of a candidate is one compare and, at a leaf, each vertex's mask is
// its fingerprint against the embedding; only the neighbour lists of the
// fingerprints' lowest-bit positions are scanned for candidates. Embeddings
// are counted, never stored: each worker's scratch is O(|V|) however many
// embeddings the release holds.
//
// Determinism: planting is a pure function of (graph, options). With a
// parallel context the anchor range is sharded by ParallelFor (static
// chunks); each anchor's budget is spent in the same neighbour order at any
// thread count; per-shard counts and candidate lists are merged in shard
// order, and the lists are sorted and deduplicated. So reports are
// bit-identical for any thread count.

#ifndef KSYM_ATTACK_SYBIL_H_
#define KSYM_ATTACK_SYBIL_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "graph/graph.h"

namespace ksym {

struct SybilPlantOptions {
  /// Attacker subgraph size. At most 30 (fingerprints are bitmasks).
  uint32_t num_sybils = 4;
  /// Number of victim vertices to fingerprint. At most 2^num_sybils - 1
  /// (fingerprints must be unique and non-empty) and at most |V(G)|.
  uint32_t num_targets = 3;
  /// Seeds the chord pattern and the target choice.
  uint64_t seed = 1;
};

/// Everything the adversary remembers about its own injection: the sybil
/// ids, the internal pattern, the per-sybil degrees at injection time (a
/// release vertex can only gain edges, so degree is a lower-bound filter),
/// and the per-target fingerprint masks.
struct SybilPlan {
  std::vector<VertexId> sybils;        // Ids in the augmented graph.
  std::vector<VertexId> targets;       // Original-graph ids (preserved).
  Graph pattern;                       // Induced subgraph on the sybils.
  std::vector<uint32_t> fingerprints;  // Per-target sybil-index bitmask.
  std::vector<size_t> planted_degrees;  // Per-sybil augmented-graph degree.
};

struct SybilPlant {
  Graph graph;  // The original graph plus the attacker subgraph.
  SybilPlan plan;
};

/// Injects the attacker subgraph. Fails when the options are out of range
/// (no sybils, more targets than fingerprints or vertices).
Result<SybilPlant> PlantSybils(const Graph& graph,
                               const SybilPlantOptions& options);

struct SybilRecoveryOptions {
  /// Backtracking budget per anchor vertex: every neighbour tried as the
  /// vertex of the next pattern position costs one. Each anchor spends its
  /// own budget in a fixed order, so truncation is schedule-independent; a
  /// truncated report says so instead of silently under-counting.
  uint64_t max_nodes_per_anchor = uint64_t{1} << 20;
  /// Parallel anchor sweep: one search per worker over a contiguous chunk
  /// of anchors, each with its own O(|V|) scratch. Results are
  /// bit-identical to sequential.
  const ExecutionContext* context = nullptr;
};

struct SybilAttackReport {
  /// Embeddings of the sybil pattern found in the release (the planted one
  /// included, unless the budget truncated its anchor).
  size_t embeddings_found = 0;
  bool truncated = false;
  bool found_planted_embedding = false;
  /// Per-target candidate sets (sorted, deduplicated across embeddings).
  std::vector<std::vector<VertexId>> candidate_sets;
  /// Mean over targets of (1/|C| if the true target is in C, else 0) — the
  /// expected success of a uniform guess from each candidate set.
  double success_probability = 0.0;
  /// Targets whose candidate set is exactly {target}.
  size_t unique_reidentifications = 0;
};

/// Runs the recovery phase of the attack against a released graph. The
/// release must contain the augmented graph's original vertices with their
/// ids preserved (the k-symmetry anonymizer only appends), which is how the
/// report can score success against plan.targets.
SybilAttackReport RecoverSybils(const Graph& release, const SybilPlan& plan,
                                const SybilRecoveryOptions& options = {});

}  // namespace ksym

#endif  // KSYM_ATTACK_SYBIL_H_
