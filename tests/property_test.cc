// Property-based tests: the paper's theorems checked as machine-verified
// invariants over sweeps of random graphs, graph families and k values
// (parameterized gtest).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "attack/adjacency.h"
#include "attack/community.h"
#include "attack/harness.h"
#include "attack/measures.h"
#include "attack/sybil.h"
#include "aut/canonical.h"
#include "aut/isomorphism.h"
#include "aut/orbits.h"
#include "aut/search.h"
#include "dyn/session.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "ksym/anonymizer.h"
#include "ksym/backbone.h"
#include "ksym/equivalence.h"
#include "ksym/minimal.h"
#include "ksym/quotient.h"
#include "ksym/release_io.h"
#include "ksym/sampling.h"
#include "ksym/verifier.h"
#include "perm/schreier_sims.h"

namespace ksym {
namespace {

// ---------------------------------------------------------------------- //
// Graph corpus shared by the sweeps.                                      //
// ---------------------------------------------------------------------- //

struct NamedGraph {
  std::string name;
  Graph graph;
};

NamedGraph MakeCorpusGraph(const std::string& kind, uint64_t seed) {
  Rng rng(seed);
  if (kind == "er_sparse") return {kind, ErdosRenyiGnm(28, 34, rng)};
  if (kind == "er_dense") return {kind, ErdosRenyiGnm(20, 70, rng)};
  if (kind == "ba") return {kind, BarabasiAlbert(30, 2, rng)};
  if (kind == "ws") return {kind, WattsStrogatz(26, 2, 0.2, rng)};
  if (kind == "tree") return {kind, MakeBalancedTree(2, 3)};
  if (kind == "star_forest") {
    return {kind, DisjointUnion(MakeStar(8), MakeStar(8))};
  }
  if (kind == "config_skew") {
    std::vector<size_t> degrees(30, 1);  // Sum must stay even.
    degrees[0] = 12;
    degrees[1] = 7;
    degrees[2] = 6;
    auto result = ConfigurationModel(degrees, rng);
    KSYM_CHECK(result.ok());
    return {kind, std::move(result).value()};
  }
  KSYM_CHECK(false);
  return {kind, Graph(0)};
}

const char* const kGraphKinds[] = {"er_sparse", "er_dense",  "ba",
                                   "ws",        "tree",      "star_forest",
                                   "config_skew"};

// ---------------------------------------------------------------------- //
// Anonymization invariants (Theorems 1-2) across (graph kind, k).         //
// ---------------------------------------------------------------------- //

class AnonymizeProperty
    : public testing::TestWithParam<std::tuple<const char*, uint32_t>> {};

TEST_P(AnonymizeProperty, TheoremTwoHolds) {
  const auto [kind, k] = GetParam();
  const NamedGraph input = MakeCorpusGraph(kind, 1000 + k);
  AnonymizationOptions options;
  options.k = k;
  const auto release = Anonymize(input.graph, options);
  ASSERT_TRUE(release.ok());

  // Theorem 2: the output is k-symmetric (independently recomputed orbits).
  EXPECT_TRUE(IsKSymmetric(release->graph, k)) << input.name;
  // G is a subgraph of G' (Section 3.1: insertion-only modification).
  EXPECT_TRUE(IsSupergraphOf(release->graph, input.graph));
  // Theorem 1: the released partition is a sub-automorphism partition.
  EXPECT_TRUE(IsCellwiseSubAutomorphismPartition(release->graph,
                                                 release->partition));
  // Section 3.3 bound: at most (k-1)|V(G)| vertices inserted.
  EXPECT_LE(release->vertices_added, (k - 1) * input.graph.NumVertices());
  // Accounting is consistent.
  EXPECT_EQ(release->graph.NumVertices(),
            input.graph.NumVertices() + release->vertices_added);
  EXPECT_EQ(release->graph.NumEdges(),
            input.graph.NumEdges() + release->edges_added);
}

TEST_P(AnonymizeProperty, MinimalVariantAlsoSatisfiesTheoremTwo) {
  const auto [kind, k] = GetParam();
  const NamedGraph input = MakeCorpusGraph(kind, 2000 + k);
  AnonymizationOptions options;
  options.k = k;
  const auto basic = Anonymize(input.graph, options);
  const auto minimal = AnonymizeMinimalVertices(input.graph, options);
  ASSERT_TRUE(basic.ok());
  ASSERT_TRUE(minimal.ok());
  EXPECT_TRUE(IsKSymmetric(minimal->graph, k)) << input.name;
  EXPECT_TRUE(IsSupergraphOf(minimal->graph, input.graph));
  EXPECT_LE(minimal->vertices_added, basic->vertices_added);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AnonymizeProperty,
    testing::Combine(testing::ValuesIn(kGraphKinds),
                     testing::Values(2u, 3u, 5u)),
    [](const testing::TestParamInfo<AnonymizeProperty::ParamType>& info) {
      return std::string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------- //
// Backbone invariants (Theorems 3-4) across graph kinds.                  //
// ---------------------------------------------------------------------- //

class BackboneProperty : public testing::TestWithParam<const char*> {};

TEST_P(BackboneProperty, CopyingPreservesBackbone) {
  const NamedGraph input = MakeCorpusGraph(GetParam(), 31);
  const VertexPartition orbits = ComputeAutomorphismPartition(input.graph, {}, nullptr);
  const BackboneResult before = ComputeBackbone(input.graph, orbits, nullptr);

  AnonymizationOptions options;
  options.k = 3;
  const auto release =
      AnonymizeWithPartition(input.graph, orbits, options);
  ASSERT_TRUE(release.ok());
  const BackboneResult after =
      ComputeBackbone(release->graph, release->partition, nullptr);
  EXPECT_TRUE(AreIsomorphic(before.graph, after.graph)) << input.name;
}

TEST_P(BackboneProperty, BackboneIsAFixpoint) {
  // Reducing the backbone again removes nothing (least element).
  const NamedGraph input = MakeCorpusGraph(GetParam(), 37);
  const VertexPartition orbits = ComputeAutomorphismPartition(input.graph, {}, nullptr);
  const BackboneResult once = ComputeBackbone(input.graph, orbits, nullptr);
  const BackboneResult twice = ComputeBackbone(once.graph, once.partition, nullptr);
  EXPECT_EQ(twice.removed_vertices, 0u) << input.name;
  EXPECT_TRUE(twice.graph == once.graph);
}

TEST_P(BackboneProperty, BackboneIsSubgraphSized) {
  const NamedGraph input = MakeCorpusGraph(GetParam(), 41);
  const VertexPartition orbits = ComputeAutomorphismPartition(input.graph, {}, nullptr);
  const BackboneResult backbone = ComputeBackbone(input.graph, orbits, nullptr);
  EXPECT_LE(backbone.graph.NumVertices(), input.graph.NumVertices());
  EXPECT_EQ(backbone.graph.NumVertices() + backbone.removed_vertices,
            input.graph.NumVertices());
}

INSTANTIATE_TEST_SUITE_P(Sweep, BackboneProperty,
                         testing::ValuesIn(kGraphKinds));

// ---------------------------------------------------------------------- //
// Orbit / measure invariants (Section 2) across graph kinds.              //
// ---------------------------------------------------------------------- //

class KnowledgeProperty : public testing::TestWithParam<const char*> {};

TEST_P(KnowledgeProperty, OrbitsLowerBoundEveryCandidateSet) {
  // Orb(v) ⊆ C(P, v) for every implemented measure (the paper's key
  // observation in Section 2.1).
  const NamedGraph input = MakeCorpusGraph(GetParam(), 43);
  const VertexPartition orbits = ComputeAutomorphismPartition(input.graph, {}, nullptr);
  for (const auto& measure :
       {DegreeMeasure(), TriangleMeasure(), NeighborDegreeSequenceMeasure(),
        CombinedMeasure()}) {
    const VertexPartition cells = PartitionByMeasure(input.graph, measure);
    for (VertexId v = 0; v < input.graph.NumVertices(); ++v) {
      EXPECT_GE(cells.CellSizeOf(v), orbits.CellSizeOf(v))
          << input.name << " " << measure.name << " v=" << v;
    }
  }
}

TEST_P(KnowledgeProperty, TdvIsCoarserThanOrbits) {
  const NamedGraph input = MakeCorpusGraph(GetParam(), 47);
  const VertexPartition orbits = ComputeAutomorphismPartition(input.graph, {}, nullptr);
  const VertexPartition tdv = ComputeTotalDegreePartition(input.graph, nullptr);
  for (const auto& orbit : orbits.cells) {
    const uint32_t cell = tdv.cell_of[orbit.front()];
    for (VertexId v : orbit) {
      EXPECT_EQ(tdv.cell_of[v], cell) << input.name;
    }
  }
}

TEST_P(KnowledgeProperty, GeneratorsVerifyAndGroupActsWithinOrbits) {
  const NamedGraph input = MakeCorpusGraph(GetParam(), 53);
  const AutomorphismResult aut = ComputeAutomorphisms(input.graph, {}, nullptr);
  for (const SparsePermutation& sparse : aut.generators) {
    const Permutation g = sparse.ToDense(input.graph.NumVertices());
    EXPECT_TRUE(IsAutomorphism(input.graph, g)) << input.name;
    for (VertexId v = 0; v < input.graph.NumVertices(); ++v) {
      EXPECT_EQ(aut.orbit_rep[v], aut.orbit_rep[g.Image(v)]);
    }
  }
}

TEST_P(KnowledgeProperty, CanonicalFormInvariantUnderRelabeling) {
  const NamedGraph input = MakeCorpusGraph(GetParam(), 59);
  const CanonicalForm reference = ComputeCanonicalForm(input.graph);
  Rng rng(61);
  std::vector<VertexId> perm(input.graph.NumVertices());
  for (VertexId v = 0; v < perm.size(); ++v) perm[v] = v;
  rng.Shuffle(perm.begin(), perm.end());
  const CanonicalForm relabeled =
      ComputeCanonicalForm(RelabelGraph(input.graph, perm));
  EXPECT_TRUE(reference == relabeled) << input.name;
}

INSTANTIATE_TEST_SUITE_P(Sweep, KnowledgeProperty,
                         testing::ValuesIn(kGraphKinds));

// ---------------------------------------------------------------------- //
// Sampling invariants across (graph kind, k).                             //
// ---------------------------------------------------------------------- //

class SamplingProperty
    : public testing::TestWithParam<std::tuple<const char*, uint32_t>> {};

TEST_P(SamplingProperty, SamplesStayWithinBudgetAndRelease) {
  const auto [kind, k] = GetParam();
  const NamedGraph input = MakeCorpusGraph(kind, 3000 + k);
  AnonymizationOptions options;
  options.k = k;
  const auto release = Anonymize(input.graph, options);
  ASSERT_TRUE(release.ok());
  Rng rng(67);
  for (int draw = 0; draw < 3; ++draw) {
    const auto approx = ApproximateBackboneSample(
        release->graph, release->partition, release->original_vertices, rng);
    ASSERT_TRUE(approx.ok());
    EXPECT_LE(approx->NumVertices(), release->graph.NumVertices());
    EXPECT_EQ(approx->NumVertices(), release->original_vertices);

    SampleStats stats;
    const auto exact = ExactBackboneSample(release->graph, release->partition,
                                           release->original_vertices, rng,
                                           nullptr, &stats);
    ASSERT_TRUE(exact.ok());
    EXPECT_GE(exact->NumVertices(), stats.backbone_vertices);
    EXPECT_LE(exact->NumVertices(), release->graph.NumVertices());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SamplingProperty,
    testing::Combine(testing::ValuesIn(kGraphKinds),
                     testing::Values(2u, 4u)),
    [](const testing::TestParamInfo<SamplingProperty::ParamType>& info) {
      return std::string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------- //
// Skeleton and serialization invariants across graph kinds.               //
// ---------------------------------------------------------------------- //

class SkeletonProperty : public testing::TestWithParam<const char*> {};

TEST_P(SkeletonProperty, QuotientNotLargerThanBackbone) {
  const NamedGraph input = MakeCorpusGraph(GetParam(), 71);
  const VertexPartition orbits = ComputeAutomorphismPartition(input.graph, {}, nullptr);
  const QuotientResult quotient = ComputeQuotient(input.graph, orbits);
  const BackboneResult backbone = ComputeBackbone(input.graph, orbits, nullptr);
  EXPECT_LE(quotient.graph.NumVertices(), backbone.graph.NumVertices());
  EXPECT_LE(backbone.graph.NumVertices(), input.graph.NumVertices());
  // Quotient has exactly one vertex per orbit.
  EXPECT_EQ(quotient.graph.NumVertices(), orbits.NumCells());
}

TEST_P(SkeletonProperty, ReleaseTripleRoundTripsThroughSerialization) {
  const NamedGraph input = MakeCorpusGraph(GetParam(), 73);
  AnonymizationOptions options;
  options.k = 3;
  const auto release = Anonymize(input.graph, options);
  ASSERT_TRUE(release.ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteRelease(MakeReleaseTriple(*release), out).ok());
  std::istringstream in(out.str());
  const auto loaded = ReadRelease(in);
  ASSERT_TRUE(loaded.ok()) << input.name;
  EXPECT_TRUE(loaded->graph == release->graph);
  EXPECT_TRUE(loaded->partition == release->partition);
  EXPECT_EQ(loaded->original_vertices, release->original_vertices);
}

TEST_P(SkeletonProperty, DistinctImageCharacterizationOnRelease) {
  const NamedGraph input = MakeCorpusGraph(GetParam(), 79);
  AnonymizationOptions options;
  options.k = 2;
  const auto release = Anonymize(input.graph, options);
  ASSERT_TRUE(release.ok());
  EXPECT_TRUE(SatisfiesDistinctImageCharacterization(release->graph, 2))
      << input.name;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SkeletonProperty,
                         testing::ValuesIn(kGraphKinds));

// ---------------------------------------------------------------------- //
// Adversary invariants: on a k-symmetric release, every attack model's     //
// candidate sets have size >= k, and the guarantee survives release_io.    //
// ---------------------------------------------------------------------- //

class AttackProperty
    : public testing::TestWithParam<
          std::tuple<const char*, uint32_t, uint64_t>> {};

TEST_P(AttackProperty, EveryAdversaryCandidateSetAtLeastK) {
  const auto [kind, k, seed] = GetParam();
  Rng rng(seed);
  const Graph graph = std::string(kind) == "er"
                          ? ErdosRenyiGnm(24, 30, rng)
                          : BarabasiAlbert(26, 2, rng);

  // Active threat model: the adversary's sybils are in the graph *before*
  // the publisher anonymizes.
  SybilPlantOptions plant_options;
  plant_options.seed = seed;
  const auto plant = PlantSybils(graph, plant_options);
  ASSERT_TRUE(plant.ok());

  AnonymizationOptions options;
  options.k = k;
  const auto release = Anonymize(plant->graph, options);
  ASSERT_TRUE(release.ok());

  // Passive models: every structural measure is automorphism-equivariant,
  // so its cells are unions of orbits and inherit the >= k floor.
  for (const auto& measure :
       {AdjacencyMeasure(1), AdjacencyMeasure(2), AdjacencyMeasure(3),
        CommunityMeasure(4), DegreeMeasure()}) {
    const VertexPartition cells =
        PartitionByMeasure(release->graph, measure);
    const CandidateStats stats = ComputeCandidateStats(cells, k);
    EXPECT_GE(stats.min_size, k) << kind << " " << measure.name;
    EXPECT_EQ(stats.under_k_vertices, 0u) << kind << " " << measure.name;
  }

  // Active model: the sybil pattern and the fingerprint edges survive the
  // (insertion-only) anonymization, so recovery must find the planted
  // embedding and place each target in its candidate set — but every
  // automorphic image of the planting matches too, so the candidate set
  // covers the target's orbit and has size >= k.
  const SybilAttackReport report =
      RecoverSybils(release->graph, plant->plan);
  EXPECT_FALSE(report.truncated);
  EXPECT_TRUE(report.found_planted_embedding) << kind;
  ASSERT_EQ(report.candidate_sets.size(), plant->plan.targets.size());
  for (size_t t = 0; t < report.candidate_sets.size(); ++t) {
    const auto& candidates = report.candidate_sets[t];
    EXPECT_GE(candidates.size(), k) << kind << " target " << t;
    EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                   plant->plan.targets[t]))
        << kind << " target " << t;
  }
  EXPECT_LE(report.success_probability, 1.0 / static_cast<double>(k));
}

TEST_P(AttackProperty, OrbitFloorSurvivesReleaseRoundTrip) {
  const auto [kind, k, seed] = GetParam();
  Rng rng(seed + 500);
  const Graph graph = std::string(kind) == "er"
                          ? ErdosRenyiGnm(24, 30, rng)
                          : BarabasiAlbert(26, 2, rng);
  AnonymizationOptions options;
  options.k = k;
  const auto release = Anonymize(graph, options);
  ASSERT_TRUE(release.ok());

  std::ostringstream out;
  ASSERT_TRUE(WriteRelease(MakeReleaseTriple(*release), out).ok());
  std::istringstream in(out.str());
  const auto loaded = ReadRelease(in);
  ASSERT_TRUE(loaded.ok());

  // The k-floor must hold on what an adversary actually downloads: the
  // deserialized release's recomputed orbits, and every attack measure's
  // candidate sets on the loaded graph.
  const VertexPartition orbits =
      ComputeAutomorphismPartition(loaded->graph, {}, nullptr);
  for (const auto& orbit : orbits.cells) {
    EXPECT_GE(orbit.size(), k) << kind;
  }
  for (const auto& measure : {AdjacencyMeasure(2), CommunityMeasure(4)}) {
    const VertexPartition cells =
        PartitionByMeasure(loaded->graph, measure);
    EXPECT_GE(ComputeCandidateStats(cells, k).min_size, k)
        << kind << " " << measure.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AttackProperty,
    testing::Combine(testing::Values("er", "ba"),
                     testing::Values(2u, 3u, 5u),
                     testing::Values(11u, 97u)),
    [](const testing::TestParamInfo<AttackProperty::ParamType>& info) {
      return std::string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------- //
// Group-order cross-validation: IR search generators vs Schreier-Sims on   //
// families with known orders, under random relabelling.                   //
// ---------------------------------------------------------------------- //

class GroupOrderProperty
    : public testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(GroupOrderProperty, OrderInvariantUnderRelabeling) {
  const auto [family, seed] = GetParam();
  Graph graph;
  double expected = 0;
  switch (family) {
    case 0:
      graph = MakeCycle(9);
      expected = 18;
      break;
    case 1:
      graph = MakeStar(7);
      expected = 720;
      break;
    case 2:
      graph = MakeHypercube(3);
      expected = 48;
      break;
    case 3:
      graph = MakePetersen();
      expected = 120;
      break;
  }
  Rng rng(seed);
  std::vector<VertexId> perm(graph.NumVertices());
  for (VertexId v = 0; v < perm.size(); ++v) perm[v] = v;
  rng.Shuffle(perm.begin(), perm.end());
  const Graph shuffled = RelabelGraph(graph, perm);
  const AutomorphismResult aut = ComputeAutomorphisms(shuffled, {}, nullptr);
  EXPECT_EQ(GroupOrderFromGenerators(
                shuffled.NumVertices(),
                ToDense(shuffled.NumVertices(), aut.generators)),
            expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GroupOrderProperty,
                         testing::Combine(testing::Values(0, 1, 2, 3),
                                          testing::Values(11u, 22u, 33u)));

// ---------------------------------------------------------------------- //
// Dynamic sweep: on an evolving graph, every per-epoch release produced   //
// through the dynamic session (DESIGN.md §15) keeps the passive           //
// adversary's candidate-set floor at k — the session's cache ladder must  //
// never leak anonymity a from-scratch release would have provided.        //
// ---------------------------------------------------------------------- //

class DynamicProperty
    : public testing::TestWithParam<
          std::tuple<const char*, uint32_t, uint64_t>> {};

TEST_P(DynamicProperty, EveryEpochReleaseKeepsTheCandidateFloor) {
  const auto [kind, k, seed] = GetParam();
  Rng rng(seed);
  Graph base = std::string(kind) == "er" ? ErdosRenyiGnm(24, 30, rng)
                                         : BarabasiAlbert(26, 2, rng);
  const size_t n = base.NumVertices();

  dyn::PlanCache cache(size_t{64} << 20);
  dyn::DynamicSession session("sweep", std::move(base), 0.25, &cache);
  ExecutionContext context(1);

  for (int epoch = 0; epoch < 4; ++epoch) {
    // Three random valid edits per epoch: inserts of absent pairs mixed
    // with deletes of present edges, no pair edited twice in one batch.
    dyn::EditBatch batch;
    std::set<std::pair<VertexId, VertexId>> in_batch;
    const dyn::DeltaGraph& graph = session.graph();
    for (int i = 0; i < 3; ++i) {
      for (int attempt = 0; attempt < 200; ++attempt) {
        VertexId u = static_cast<VertexId>(rng.NextBounded(n));
        VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        if (u == v) continue;
        if (u > v) std::swap(u, v);
        if (!in_batch.insert({u, v}).second) continue;
        if (graph.HasEdge(u, v) && rng.NextBounded(3) == 0) {
          batch.Delete(u, v);
          break;
        }
        if (!graph.HasEdge(u, v)) {
          batch.Insert(u, v);
          break;
        }
        in_batch.erase({u, v});
      }
    }
    ASSERT_FALSE(batch.empty());
    ASSERT_TRUE(session.Stage(batch).ok());
    ASSERT_TRUE(session.Commit().ok());

    auto outcome = session.Reanonymize(k, &context);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_NE(outcome->release, nullptr);

    for (const auto& measure :
         {AdjacencyMeasure(2), CommunityMeasure(4), DegreeMeasure()}) {
      const VertexPartition cells =
          PartitionByMeasure(outcome->release->graph, measure);
      const CandidateStats stats = ComputeCandidateStats(cells, k);
      EXPECT_GE(stats.min_size, k)
          << kind << " epoch " << epoch << " " << measure.name;
      EXPECT_EQ(stats.under_k_vertices, 0u)
          << kind << " epoch " << epoch << " " << measure.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DynamicProperty,
    testing::Combine(testing::Values("er", "ba"), testing::Values(2u, 3u),
                     testing::Values(11u, 97u)),
    [](const testing::TestParamInfo<DynamicProperty::ParamType>& info) {
      return std::string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace ksym
