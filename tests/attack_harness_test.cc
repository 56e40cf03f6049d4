// Tests for the ksym_attack adversary stack (DESIGN.md §14): per-model unit
// tests on hand-built graphs with known candidate sets, the naive-release
// baseline where the sybil attack must fully succeed, a pinned
// budget-truncated recovery, sybil recovery against a brute-force oracle
// (on tiny hosts with every pattern size, and on hosts of hundreds of
// vertices with candidate sets of every size) and against a plain budgeted
// search, 1/2/4-thread bit-identity of the
// sybil section, the pinned golden report on the checked-in graph, and the
// descriptive-error contract for manifest inputs.

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"

#include "attack/adjacency.h"
#include "attack/community.h"
#include "attack/harness.h"
#include "attack/measures.h"
#include "attack/sybil.h"
#include "aut/orbits.h"
#include "common/check.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "ksym/anonymizer.h"
#include "serve/api.h"
#include "serve_test_util.h"

namespace ksym {
namespace {

using serve_test::ReadFileBytes;
using serve_test::TempPath;
using serve_test::WriteFileBytes;

// The golden host graph: the same BA(32, 2) the checked-in
// tests/testdata/attack_golden.ksymcsr was generated from.
Graph GoldenHostGraph() {
  Rng rng(5);
  return BarabasiAlbert(32, 2, rng);
}

// ---------------------------------------------------------------------------
// Candidate-set statistics
// ---------------------------------------------------------------------------

TEST(CandidateStatsTest, HandComputedPartition) {
  // Cells {0,1,2}, {3}, {4,5} over 6 vertices.
  const VertexPartition partition =
      VertexPartition::FromRepresentatives({0, 0, 0, 3, 4, 4});
  const CandidateStats stats = ComputeCandidateStats(partition, 2);
  EXPECT_EQ(stats.cells, 3u);
  EXPECT_EQ(stats.min_size, 1u);
  EXPECT_EQ(stats.max_size, 3u);
  // Mean |C(v)| over vertices: (3*3 + 1*1 + 2*2) / 6.
  EXPECT_DOUBLE_EQ(stats.mean_size, 14.0 / 6.0);
  // Mean 1/|C(v)| = cells/n.
  EXPECT_DOUBLE_EQ(stats.success_rate, 3.0 / 6.0);
  EXPECT_EQ(stats.under_k_vertices, 1u);  // Only the singleton {3}.
  EXPECT_EQ(ComputeCandidateStats(partition, 3).under_k_vertices, 3u);
}

// ---------------------------------------------------------------------------
// (k,l)-adjacency measure
// ---------------------------------------------------------------------------

TEST(AdjacencyMeasureTest, PathKeysAreKnown) {
  // P4: degrees 1,2,2,1. Every vertex's top neighbour degree is 2, so l=1
  // cannot separate anyone; l=2 splits the endpoints (key "2") from the
  // middle (key "2,1").
  const Graph path = MakePath(4);
  const VertexPartition l1 = PartitionByMeasure(path, AdjacencyMeasure(1));
  EXPECT_EQ(l1.NumCells(), 1u);
  const VertexPartition l2 = PartitionByMeasure(path, AdjacencyMeasure(2));
  ASSERT_EQ(l2.NumCells(), 2u);
  EXPECT_EQ(l2.cells[0], (std::vector<VertexId>{0, 3}));
  EXPECT_EQ(l2.cells[1], (std::vector<VertexId>{1, 2}));
}

TEST(AdjacencyMeasureTest, EllZeroIsTheTrivialPartition) {
  const Graph star = MakeStar(5);
  EXPECT_EQ(PartitionByMeasure(star, AdjacencyMeasure(0)).NumCells(), 1u);
}

TEST(AdjacencyMeasureTest, SweepIsMonotoneRefinement) {
  // key_{l+1} extends key_l, so each (l+1)-cell must sit inside one l-cell:
  // the sweep's candidate-set curve can only tighten.
  Rng rng(13);
  const Graph graph = BarabasiAlbert(40, 3, rng);
  VertexPartition prev = PartitionByMeasure(graph, AdjacencyMeasure(1));
  for (uint32_t ell = 2; ell <= 4; ++ell) {
    const VertexPartition next =
        PartitionByMeasure(graph, AdjacencyMeasure(ell));
    EXPECT_GE(next.NumCells(), prev.NumCells()) << "l=" << ell;
    for (const auto& cell : next.cells) {
      for (const VertexId v : cell) {
        EXPECT_EQ(prev.cell_of[v], prev.cell_of[cell[0]]) << "l=" << ell;
      }
    }
    prev = next;
  }
}

// ---------------------------------------------------------------------------
// Community measure
// ---------------------------------------------------------------------------

TEST(CommunityMeasureTest, LabelsAreEquivariant) {
  // Two disjoint copies of the same graph: v and its mirror v+n are swapped
  // by an automorphism, so equivariant labels must agree. (Seeding from
  // vertex ids instead of degrees would fail exactly here.)
  Rng rng(29);
  const Graph half = BarabasiAlbert(20, 2, rng);
  const Graph doubled = DisjointUnion(half, half);
  const size_t n = half.NumVertices();
  const std::vector<uint32_t> labels = CommunityLabels(doubled, 4);
  ASSERT_EQ(labels.size(), 2 * n);
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_EQ(labels[v], labels[v + n]) << "vertex " << v;
  }
}

TEST(CommunityMeasureTest, StarCollapsesToTwoSignatures) {
  // All leaves of a star are symmetric: one signature for the hub, one for
  // the leaves, at every iteration count.
  const Graph star = MakeStar(7);
  for (const uint32_t iters : {0u, 1u, 4u}) {
    const VertexPartition cells =
        PartitionByMeasure(star, CommunityMeasure(iters));
    ASSERT_EQ(cells.NumCells(), 2u) << "iters=" << iters;
    EXPECT_EQ(cells.CellSizeOf(0), 1u) << "iters=" << iters;  // Hub.
    EXPECT_EQ(cells.CellSizeOf(1), star.NumVertices() - 1) << "iters=" << iters;
  }
}

TEST(CommunityMeasureTest, MeasureIsCoarserThanOrbits) {
  Rng rng(31);
  const Graph graph = ErdosRenyiGnm(30, 45, rng);
  const VertexPartition orbits =
      ComputeAutomorphismPartition(graph, {}, nullptr);
  const VertexPartition cells =
      PartitionByMeasure(graph, CommunityMeasure(4));
  // Orbit-mates are never separated by an equivariant measure.
  for (const auto& orbit : orbits.cells) {
    for (const VertexId v : orbit) {
      EXPECT_EQ(cells.cell_of[v], cells.cell_of[orbit[0]]);
    }
  }
}

// ---------------------------------------------------------------------------
// Sybil planting and recovery
// ---------------------------------------------------------------------------

TEST(SybilPlantTest, PlanStructureIsCoherent) {
  const Graph graph = MakePath(10);
  SybilPlantOptions options;
  options.num_sybils = 5;
  options.num_targets = 4;
  options.seed = 3;
  const auto plant = PlantSybils(graph, options);
  ASSERT_TRUE(plant.ok()) << plant.status().ToString();
  const SybilPlan& plan = plant->plan;

  // Sybils are appended after the original ids.
  ASSERT_EQ(plan.sybils.size(), 5u);
  for (size_t i = 0; i < plan.sybils.size(); ++i) {
    EXPECT_EQ(plan.sybils[i], graph.NumVertices() + i);
  }

  // The pattern's path spine is wired into the augmented graph, and the
  // pattern is exactly the induced subgraph on the sybils.
  ASSERT_EQ(plan.pattern.NumVertices(), 5u);
  for (size_t i = 0; i + 1 < plan.sybils.size(); ++i) {
    EXPECT_TRUE(plan.pattern.HasEdge(i, i + 1));
  }
  for (VertexId a = 0; a < 5; ++a) {
    for (VertexId b = a + 1; b < 5; ++b) {
      EXPECT_EQ(plan.pattern.HasEdge(a, b),
                plant->graph.HasEdge(plan.sybils[a], plan.sybils[b]));
    }
  }

  // Fingerprints: unique, non-empty, within the 5-bit mask range; targets
  // are distinct original vertices wired to exactly their mask.
  ASSERT_EQ(plan.targets.size(), 4u);
  ASSERT_EQ(plan.fingerprints.size(), 4u);
  std::vector<uint32_t> masks(plan.fingerprints);
  std::sort(masks.begin(), masks.end());
  EXPECT_EQ(std::unique(masks.begin(), masks.end()), masks.end());
  for (size_t t = 0; t < plan.targets.size(); ++t) {
    EXPECT_LT(plan.targets[t], graph.NumVertices());
    ASSERT_GT(plan.fingerprints[t], 0u);
    ASSERT_LT(plan.fingerprints[t], 1u << 5);
    for (size_t s = 0; s < plan.sybils.size(); ++s) {
      const bool wired =
          plant->graph.HasEdge(plan.targets[t], plan.sybils[s]);
      EXPECT_EQ(wired, (plan.fingerprints[t] >> s & 1) != 0);
    }
  }

  // The augmented graph is a supergraph of the original, and the recorded
  // planted degrees match it.
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    for (const VertexId u : graph.Neighbors(v)) {
      EXPECT_TRUE(plant->graph.HasEdge(v, u));
    }
  }
  ASSERT_EQ(plan.planted_degrees.size(), 5u);
  for (size_t s = 0; s < plan.sybils.size(); ++s) {
    EXPECT_EQ(plan.planted_degrees[s], plant->graph.Degree(plan.sybils[s]));
  }
}

TEST(SybilPlantTest, RejectsOutOfRangeOptions) {
  const Graph graph = MakePath(4);
  SybilPlantOptions options;
  options.num_sybils = 0;
  EXPECT_FALSE(PlantSybils(graph, options).ok());
  options.num_sybils = 31;  // Fingerprints are 30-bit masks.
  EXPECT_FALSE(PlantSybils(graph, options).ok());
  options.num_sybils = 2;
  options.num_targets = 4;  // > 2^2 - 1 distinct fingerprints.
  EXPECT_FALSE(PlantSybils(graph, options).ok());
  options.num_sybils = 4;
  options.num_targets = 5;  // > |V|.
  EXPECT_FALSE(PlantSybils(graph, options).ok());
}

TEST(SybilRecoveryTest, NaiveReleaseIsFullyBroken) {
  // The golden parameters: on BA(32,2) seed 5, a 6-sybil pattern embeds
  // uniquely, so attacking the un-anonymized release pins all 3 targets.
  SybilPlantOptions options;
  options.num_sybils = 6;
  options.num_targets = 3;
  options.seed = 7;
  const auto plant = PlantSybils(GoldenHostGraph(), options);
  ASSERT_TRUE(plant.ok());

  const SybilAttackReport report = RecoverSybils(plant->graph, plant->plan);
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(report.embeddings_found, 1u);
  EXPECT_TRUE(report.found_planted_embedding);
  ASSERT_EQ(report.candidate_sets.size(), 3u);
  for (size_t t = 0; t < report.candidate_sets.size(); ++t) {
    EXPECT_EQ(report.candidate_sets[t],
              std::vector<VertexId>{plant->plan.targets[t]});
  }
  EXPECT_DOUBLE_EQ(report.success_probability, 1.0);
  EXPECT_EQ(report.unique_reidentifications, 3u);
}

TEST(SybilRecoveryTest, AnonymizedReleaseRestoresTheFloor) {
  SybilPlantOptions options;
  options.num_sybils = 6;
  options.num_targets = 3;
  options.seed = 7;
  const auto plant = PlantSybils(GoldenHostGraph(), options);
  ASSERT_TRUE(plant.ok());
  AnonymizationOptions anon;
  anon.k = 3;
  const auto release = Anonymize(plant->graph, anon);
  ASSERT_TRUE(release.ok());

  const SybilAttackReport report =
      RecoverSybils(release->graph, plant->plan);
  EXPECT_TRUE(report.found_planted_embedding);
  EXPECT_EQ(report.unique_reidentifications, 0u);
  EXPECT_LE(report.success_probability, 1.0 / 3.0);
  for (const auto& candidates : report.candidate_sets) {
    EXPECT_GE(candidates.size(), 3u);
  }
}

TEST(SybilRecoveryTest, PerAnchorBudgetReportsTruncation) {
  // A budget too small to even place the planted embedding must be reported
  // as truncation, never as a silently smaller candidate set.
  SybilPlantOptions options;
  options.num_sybils = 6;
  options.num_targets = 3;
  options.seed = 7;
  const auto plant = PlantSybils(GoldenHostGraph(), options);
  ASSERT_TRUE(plant.ok());
  SybilRecoveryOptions recovery;
  recovery.max_nodes_per_anchor = 1;
  const SybilAttackReport report =
      RecoverSybils(plant->graph, plant->plan, recovery);
  EXPECT_TRUE(report.truncated);
}

TEST(SybilRecoveryTest, TruncatedBudgetIsPinnedAtEveryThreadCount) {
  // A budget that cuts the search part-way through: the figures pin which
  // assignment attempt each anchor stops at, so a kernel that scans
  // candidates in another order or charges the budget elsewhere moves them.
  SybilPlantOptions options;
  options.num_sybils = 6;
  options.num_targets = 3;
  options.seed = 7;
  const auto plant = PlantSybils(GoldenHostGraph(), options);
  ASSERT_TRUE(plant.ok());
  AnonymizationOptions anon;
  anon.k = 3;
  const auto release = Anonymize(plant->graph, anon);
  ASSERT_TRUE(release.ok());

  for (const uint32_t threads : {1u, 2u, 4u}) {
    ExecutionContext context(threads);
    SybilRecoveryOptions recovery;
    recovery.max_nodes_per_anchor = 1000;
    recovery.context = &context;
    const SybilAttackReport report =
        RecoverSybils(release->graph, plant->plan, recovery);
    EXPECT_EQ(report.embeddings_found, 189u) << threads << " threads";
    EXPECT_TRUE(report.truncated) << threads << " threads";
    EXPECT_FALSE(report.found_planted_embedding) << threads << " threads";
    EXPECT_EQ(report.candidate_sets,
              (std::vector<std::vector<VertexId>>{{}, {}, {35, 106, 107}}))
        << threads << " threads";
    // The section's minimum counts the empty sets.
    const std::string section =
        FormatSybilSection("anonymized release", plant->plan, report);
    EXPECT_NE(section.find("min 0, mean 1.00, max 3"), std::string::npos)
        << section;
  }
}

// ---------------------------------------------------------------------------
// Recovery oracles
// ---------------------------------------------------------------------------

// What recovery must report, computed from the definitions alone: an
// embedding is an injective s-tuple whose induced adjacency equals the
// pattern and whose degrees meet planted_degrees; a target's candidates are
// the vertices outside some embedding whose adjacency set to it equals the
// target's fingerprint.
struct OracleRecovery {
  size_t embeddings = 0;
  bool found_planted = false;
  bool truncated = false;
  std::vector<std::vector<VertexId>> candidate_sets;
};

bool InTuple(const std::vector<VertexId>& tuple, VertexId v) {
  return std::find(tuple.begin(), tuple.end(), v) != tuple.end();
}

// Whether v may extend the tuple: distinct, degree at least the planted
// one, and adjacent to each tuple vertex exactly where the pattern is.
bool OracleFits(const Graph& graph, const SybilPlan& plan,
                const std::vector<VertexId>& tuple, VertexId v) {
  const size_t position = tuple.size();
  if (InTuple(tuple, v) || graph.Degree(v) < plan.planted_degrees[position]) {
    return false;
  }
  for (size_t j = 0; j < position; ++j) {
    if (graph.HasEdge(v, tuple[j]) !=
        plan.pattern.HasEdge(static_cast<VertexId>(position),
                             static_cast<VertexId>(j))) {
      return false;
    }
  }
  return true;
}

// Counts a complete tuple and scans every vertex for fingerprints.
void OracleLeaf(const Graph& graph, const SybilPlan& plan,
                const std::vector<VertexId>& tuple, OracleRecovery& out) {
  ++out.embeddings;
  if (tuple == plan.sybils) out.found_planted = true;
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    if (InTuple(tuple, u)) continue;
    uint32_t adjacency = 0;
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (graph.HasEdge(u, tuple[i])) adjacency |= uint32_t{1} << i;
    }
    for (size_t t = 0; t < plan.fingerprints.size(); ++t) {
      if (adjacency == plan.fingerprints[t]) {
        out.candidate_sets[t].push_back(u);
      }
    }
  }
}

void SortCandidates(OracleRecovery& out) {
  for (auto& candidates : out.candidate_sets) {
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
  }
}

// Tuples are extended one position at a time over every vertex id; a prefix
// is dropped as soon as it fails a test that every tuple extending it would
// fail too, so the kept tuples are exactly those of a full enumeration.
void BruteForceExtend(const Graph& graph, const SybilPlan& plan,
                      std::vector<VertexId>& tuple, OracleRecovery& out) {
  if (tuple.size() == plan.sybils.size()) {
    OracleLeaf(graph, plan, tuple, out);
    return;
  }
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (!OracleFits(graph, plan, tuple, v)) continue;
    tuple.push_back(v);
    BruteForceExtend(graph, plan, tuple, out);
    tuple.pop_back();
  }
}

OracleRecovery BruteForceRecovery(const Graph& graph, const SybilPlan& plan) {
  OracleRecovery out;
  out.candidate_sets.resize(plan.targets.size());
  std::vector<VertexId> tuple;
  BruteForceExtend(graph, plan, tuple, out);
  SortCandidates(out);
  return out;
}

// The budgeted search order, written plainly: position p's vertex is tried
// from the neighbours of position p - 1's vertex in adjacency order, each
// try costs one unit before it is tested, and the anchor stops at the first
// try its budget cannot pay for. Returns false when it stopped.
bool BudgetedExtend(const Graph& graph, const SybilPlan& plan,
                    std::vector<VertexId>& tuple, uint64_t& budget,
                    OracleRecovery& out) {
  if (tuple.size() == plan.sybils.size()) {
    OracleLeaf(graph, plan, tuple, out);
    return true;
  }
  for (VertexId v : graph.Neighbors(tuple.back())) {
    if (budget == 0) return false;
    --budget;
    if (!OracleFits(graph, plan, tuple, v)) continue;
    tuple.push_back(v);
    const bool complete = BudgetedExtend(graph, plan, tuple, budget, out);
    tuple.pop_back();
    if (!complete) return false;
  }
  return true;
}

// Every anchor in id order that fits position 0, each with its own budget.
OracleRecovery BudgetedRecovery(const Graph& graph, const SybilPlan& plan,
                                uint64_t max_nodes_per_anchor) {
  OracleRecovery out;
  out.candidate_sets.resize(plan.targets.size());
  std::vector<VertexId> tuple;
  for (VertexId anchor = 0; anchor < graph.NumVertices(); ++anchor) {
    if (!OracleFits(graph, plan, tuple, anchor)) continue;
    tuple.push_back(anchor);
    uint64_t budget = max_nodes_per_anchor;
    if (!BudgetedExtend(graph, plan, tuple, budget, out)) out.truncated = true;
    tuple.pop_back();
  }
  SortCandidates(out);
  return out;
}

// Random hosts with 1-5 sybils and up to min(2^s - 1, |V|) targets, so the
// fingerprints include ones holding the last pattern position and, where
// 2^(s-1) targets fit, the one that is the last position alone.
struct OracleCase {
  SybilPlant plant;
  Graph release;  // k = 2.
};

OracleCase MakeOracleCase(uint64_t seed, const Graph& host) {
  const auto s = static_cast<uint32_t>(1 + seed % 5);
  const uint64_t max_targets =
      std::min<uint64_t>((uint64_t{1} << s) - 1, host.NumVertices());
  SybilPlantOptions options;
  options.num_sybils = s;
  options.num_targets = static_cast<uint32_t>(1 + (seed / 5) % max_targets);
  options.seed = seed;
  auto plant = PlantSybils(host, options);
  KSYM_CHECK(plant.ok());
  AnonymizationOptions anon;
  anon.k = 2;
  auto release = Anonymize(plant->graph, anon);
  KSYM_CHECK(release.ok());
  return {std::move(*plant), std::move(release->graph)};
}

// Tallies what the fingerprints that hold the last pattern position found.
struct LastPositionCoverage {
  size_t last_and_lower = 0;  // Fingerprints with bit s - 1 and lower bits.
  size_t last_only = 0;       // The fingerprint 2^(s-1).
  void Add(const SybilPlan& plan, const OracleRecovery& expected) {
    const uint32_t top = uint32_t{1} << (plan.sybils.size() - 1);
    for (size_t t = 0; t < plan.fingerprints.size(); ++t) {
      const size_t found = expected.candidate_sets[t].size();
      if (plan.fingerprints[t] == top) {
        last_only += found;
      } else if (plan.fingerprints[t] & top) {
        last_and_lower += found;
      }
    }
  }
};

void ExpectSameRecovery(const SybilAttackReport& report,
                        const OracleRecovery& expected,
                        const std::string& where) {
  EXPECT_EQ(report.truncated, expected.truncated) << where;
  EXPECT_EQ(report.embeddings_found, expected.embeddings) << where;
  EXPECT_EQ(report.found_planted_embedding, expected.found_planted) << where;
  EXPECT_EQ(report.candidate_sets, expected.candidate_sets) << where;
}

TEST(SybilOracleTest, RecoveryMatchesBruteForceOnRandomHosts) {
  size_t total_embeddings = 0;
  size_t multi_embedding_graphs = 0;
  size_t total_candidates = 0;
  LastPositionCoverage coverage;
  std::vector<size_t> graphs_per_size(6, 0);
  const ExecutionContext contexts[] = {ExecutionContext(1), ExecutionContext(2),
                                       ExecutionContext(4)};
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(1000 + seed);
    const size_t n = 6 + (seed / 3) % 5;
    const OracleCase c =
        MakeOracleCase(seed, ErdosRenyiGnp(n, 0.25 + 0.05 * (seed % 4), rng));
    const SybilPlan& plan = c.plant.plan;
    ASSERT_LE(c.release.NumVertices(), 32u);
    ++graphs_per_size[plan.sybils.size()];

    for (const Graph* graph : {&c.plant.graph, &c.release}) {
      const OracleRecovery expected = BruteForceRecovery(*graph, plan);
      total_embeddings += expected.embeddings;
      if (expected.embeddings > 1) ++multi_embedding_graphs;
      for (const auto& candidates : expected.candidate_sets) {
        total_candidates += candidates.size();
      }
      coverage.Add(plan, expected);
      for (const ExecutionContext& context : contexts) {
        SybilRecoveryOptions recovery;
        recovery.context = &context;
        ExpectSameRecovery(
            RecoverSybils(*graph, plan, recovery), expected,
            "seed " + std::to_string(seed) +
                (graph == &c.plant.graph ? " planted" : " release") + ", " +
                std::to_string(context.threads()) + " threads");
      }
    }
  }
  // The sweep is not vacuous: every pattern size from 1 to 5 is drawn, most
  // graphs embed the pattern more than once, so candidate sets merge across
  // embeddings, and fingerprints holding the last position find vertices.
  for (size_t s = 1; s <= 5; ++s) EXPECT_GT(graphs_per_size[s], 0u) << s;
  EXPECT_GT(multi_embedding_graphs, 50u);
  EXPECT_GT(total_embeddings, 1000u);
  EXPECT_GT(total_candidates, 500u);
  EXPECT_GT(coverage.last_and_lower, 100u);
  EXPECT_GT(coverage.last_only, 100u);
}

TEST(SybilOracleTest, BudgetedRecoveryMatchesPlainSearchOrder) {
  size_t truncated_runs = 0;
  size_t complete_runs = 0;
  size_t truncated_candidates = 0;
  LastPositionCoverage coverage;
  const ExecutionContext contexts[] = {ExecutionContext(1), ExecutionContext(2),
                                       ExecutionContext(4)};
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(2000 + seed);
    const size_t n = 10 + seed % 7;
    const OracleCase c = MakeOracleCase(
        seed, seed % 2 == 0 ? ErdosRenyiGnp(n, 0.2 + 0.05 * (seed % 5), rng)
                            : BarabasiAlbert(n, 2 + seed % 2, rng));
    const SybilPlan& plan = c.plant.plan;
    for (const Graph* graph : {&c.plant.graph, &c.release}) {
      for (const uint64_t budget : {uint64_t{7}, uint64_t{100}, uint64_t{1000},
                                    uint64_t{1} << 20}) {
        const OracleRecovery expected = BudgetedRecovery(*graph, plan, budget);
        if (expected.truncated) {
          ++truncated_runs;
          for (const auto& candidates : expected.candidate_sets) {
            truncated_candidates += candidates.size();
          }
        } else {
          ++complete_runs;
        }
        coverage.Add(plan, expected);
        for (const ExecutionContext& context : contexts) {
          SybilRecoveryOptions recovery;
          recovery.max_nodes_per_anchor = budget;
          recovery.context = &context;
          ExpectSameRecovery(
              RecoverSybils(*graph, plan, recovery), expected,
              "seed " + std::to_string(seed) +
                  (graph == &c.plant.graph ? " planted" : " release") +
                  ", budget " + std::to_string(budget) + ", " +
                  std::to_string(context.threads()) + " threads");
        }
      }
    }
  }
  // Both regimes occur, and truncated runs still report candidates, so
  // where a budget stops inside the last position is pinned.
  EXPECT_GT(truncated_runs, 40u);
  EXPECT_GT(complete_runs, 40u);
  EXPECT_GT(truncated_candidates, 100u);
  EXPECT_GT(coverage.last_and_lower, 100u);
  EXPECT_GT(coverage.last_only, 100u);
}

// Hundreds of vertices and two or three sybils with every fingerprint: the
// pattern embeds along most edges, so candidate sets range from a few
// vertices to most of the graph and are merged across workers at every
// size in between.
TEST(SybilOracleTest, CandidateSetsOfEverySizeMatchBruteForce) {
  size_t few = 0;     // Sets of 2 to 10 vertices.
  size_t middle = 0;  // Larger, but at most half the graph.
  size_t most = 0;    // More than half the graph.
  const ExecutionContext contexts[] = {ExecutionContext(1), ExecutionContext(2),
                                       ExecutionContext(4)};
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(3000 + seed);
    const size_t n = 150 << (seed % 3);
    const Graph host = seed % 2 == 0 ? BarabasiAlbert(n, 2, rng)
                                     : ErdosRenyiGnp(n, 4.0 / n, rng);
    SybilPlantOptions options;
    options.num_sybils = 2 + seed % 2;
    options.num_targets = (1u << options.num_sybils) - 1;
    options.seed = seed;
    auto plant = PlantSybils(host, options);
    ASSERT_TRUE(plant.ok());
    const SybilPlan& plan = plant->plan;
    const OracleRecovery expected = BruteForceRecovery(plant->graph, plan);
    for (const auto& candidates : expected.candidate_sets) {
      if (candidates.size() > n / 2) {
        ++most;
      } else if (candidates.size() > 10) {
        ++middle;
      } else if (candidates.size() >= 2) {
        ++few;
      }
    }
    for (const ExecutionContext& context : contexts) {
      SybilRecoveryOptions recovery;
      recovery.context = &context;
      ExpectSameRecovery(RecoverSybils(plant->graph, plan, recovery), expected,
                         "seed " + std::to_string(seed) + ", " +
                             std::to_string(context.threads()) + " threads");
    }
  }
  EXPECT_GT(few, 5u);
  EXPECT_GT(middle, 5u);
  EXPECT_GT(most, 3u);
}

// ---------------------------------------------------------------------------
// Thread-count invariance: the sybil section byte-identical at 1/2/4
// threads (the TSan job runs this file too). The passive measures have no
// parallel path; the golden tests below pin their section.
// ---------------------------------------------------------------------------

TEST(AttackDeterminismTest, SybilSectionIsBitIdenticalAcrossThreadCounts) {
  SybilPlantOptions options;
  options.num_sybils = 6;
  options.num_targets = 3;
  options.seed = 7;
  const auto plant = PlantSybils(GoldenHostGraph(), options);
  ASSERT_TRUE(plant.ok());
  AnonymizationOptions anon;
  anon.k = 3;
  const auto release = Anonymize(plant->graph, anon);
  ASSERT_TRUE(release.ok());

  std::vector<std::string> sybil_sections;
  for (const uint32_t threads : {1u, 2u, 4u}) {
    ExecutionContext context(threads);
    SybilRecoveryOptions recovery;
    recovery.context = &context;
    const SybilAttackReport report =
        RecoverSybils(release->graph, plant->plan, recovery);
    sybil_sections.push_back(
        FormatSybilSection("anonymized release", plant->plan, report));
  }
  EXPECT_EQ(sybil_sections[0], sybil_sections[1]);
  EXPECT_EQ(sybil_sections[0], sybil_sections[2]);
  // And the section is non-trivial.
  EXPECT_NE(sybil_sections[0].find("sybil attack"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The pinned golden report
// ---------------------------------------------------------------------------

TEST(AttackGoldenTest, ReportMatchesCheckedInBytes) {
  // End to end through serve/api.h on the checked-in graph: any change to
  // planting, anonymization, recovery or formatting shows up as a byte
  // diff here (and in the CI smoke, which cmp's the CLI's stdout).
  serve::AttackRequest request;
  request.input = std::string(KSYM_TESTDATA_DIR) + "/attack_golden.ksymcsr";
  request.k = 3;
  request.seed = 7;
  request.sybils = 6;
  const auto response = serve::RunAttack(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const std::string golden =
      ReadFileBytes(std::string(KSYM_TESTDATA_DIR) + "/attack_golden.report");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(response->report, golden);
}

TEST(AttackGoldenTest, ThreadedRequestMatchesGoldenToo) {
  serve::AttackRequest request;
  request.input = std::string(KSYM_TESTDATA_DIR) + "/attack_golden.ksymcsr";
  request.k = 3;
  request.seed = 7;
  request.sybils = 6;
  request.threads = 4;
  const auto response = serve::RunAttack(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->report, ReadFileBytes(std::string(KSYM_TESTDATA_DIR) +
                                            "/attack_golden.report"));
}

// ---------------------------------------------------------------------------
// Manifest inputs fail descriptively
// ---------------------------------------------------------------------------

TEST(ManifestErrorTest, AnonymizeWithoutTdvNamesTheMissingFlag) {
  const std::string path = TempPath("attack_harness_manifest_a.manifest");
  WriteFileBytes(path, "KSYMSHARDS fake manifest body\n");
  serve::AnonymizeRequest request;
  request.input = path;
  request.output = TempPath("attack_harness_manifest_a.out");
  request.k = 3;
  const auto response = serve::RunAnonymize(request);
  ASSERT_FALSE(response.ok());
  EXPECT_NE(response.status().ToString().find("requires --tdv"),
            std::string::npos)
      << response.status().ToString();
  // Consistent with the attack op: both errors name the resident-graph
  // limitation and the --tdv workaround.
  EXPECT_NE(response.status().ToString().find("resident graph"),
            std::string::npos)
      << response.status().ToString();
}

TEST(ManifestErrorTest, AttackRefusesManifestsWithGuidance) {
  const std::string path = TempPath("attack_harness_manifest_b.manifest");
  WriteFileBytes(path, "KSYMSHARDS fake manifest body\n");
  serve::AttackRequest request;
  request.input = path;
  const auto response = serve::RunAttack(request);
  ASSERT_FALSE(response.ok());
  EXPECT_NE(response.status().ToString().find(
                "sharded manifests are not supported"),
            std::string::npos)
      << response.status().ToString();
  EXPECT_NE(response.status().ToString().find("resident graph"),
            std::string::npos)
      << response.status().ToString();
  EXPECT_NE(response.status().ToString().find("--tdv"), std::string::npos)
      << response.status().ToString();
}

}  // namespace
}  // namespace ksym
