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
// test of a candidate is one compare. It assigns positions 0..s-2; at the
// last position it only collects the vertices that fit into a leaf list L
// and settles the (s-1)-prefix once, however many leaves it has:
//   * |L| embeddings, and the planted one when the prefix is the sybils'
//     first s-1 and the last sybil is in L;
//   * every target's candidates. In the embedding (prefix, v) a vertex u's
//     adjacency set is its prefix mask plus the top bit s-1 exactly when
//     u ~ v. So u, outside the prefix and with prefix mask equal to the
//     fingerprint f minus the top bit, matches f in some embedding of the
//     prefix iff some leaf is adjacent to u (top bit in f) or some leaf
//     v != u is not (top bit not in f; certain once |L| > deg(u) + 1).
//     That is the union over the prefix's leaves of what a per-leaf scan
//     finds. Such a u is adjacent to the position of its mask's lowest
//     bit. Targets are indexed by base (the fingerprint without the top
//     bit), and fingerprints are unique, so a base has at most two: the
//     one without the top bit and the one with it. So each position that
//     is some base's lowest bit has its neighbour list walked once per
//     prefix, a vertex is read only at its mask's lowest bit, and its mask
//     indexes the at most two targets it can match. The fingerprint of
//     the top bit alone has base 0 and is read off the leaves' own lists.
// The budget is charged exactly as a per-leaf search charges it: one unit
// per neighbour tried, at every position the last included, in the same
// order. When it runs out inside the last position, L holds the leaves
// found before that, which are the ones a per-leaf search records.
//
// Embeddings are counted, never stored. Each worker's scratch is
// O(|V| + largest fingerprint) plus the candidate sets: one mask per vertex
// and L, the index of targets by base, sized by the largest base (target t
// of a plan PlantSybils made has fingerprint t + 1, so at most T + 1
// slots), and, per target, a set of the candidates that worker found:
// empty until its first candidate, then at most 16 bytes per candidate,
// four times what those candidates take in the report. So the scratch
// follows the report actually returned, not the number of targets times
// |V|.
//
// Determinism: planting is a pure function of (graph, options). With a
// parallel context the anchor range is sharded by ParallelFor (static
// chunks); each anchor's budget is spent in the same neighbour order at any
// thread count; per-shard counts are summed, candidate sets united, and
// each emitted sorted ascending. So reports are bit-identical for any
// thread count.

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
  /// of anchors, each with its own O(|V|) scratch and candidate sets.
  /// Results are bit-identical to sequential.
  const ExecutionContext* context = nullptr;
};

struct SybilAttackReport {
  /// Embeddings of the sybil pattern found in the release (the planted one
  /// included, unless the budget truncated its anchor).
  size_t embeddings_found = 0;
  bool truncated = false;
  bool found_planted_embedding = false;
  /// Per-target candidate sets (ascending, the union over embeddings).
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
