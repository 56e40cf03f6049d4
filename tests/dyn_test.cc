// Tests for the dynamic-graph subsystem (DESIGN.md §15): the DeltaGraph
// overlay and its validation ladder, the edit-trace parsers (including a
// single-byte corruption fuzz), the PlanCache, and the DynamicSession
// cache ladder.

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "aut/orbits.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dyn/delta_graph.h"
#include "dyn/edits.h"
#include "dyn/plan_cache.h"
#include "dyn/repair.h"
#include "dyn/session.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace ksym {
namespace dyn {
namespace {

Graph FromEdges(size_t n, const std::vector<std::pair<VertexId, VertexId>>&
                              edges) {
  GraphBuilder builder(n);
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  return builder.Build();
}

// The tools_dynamic base graph: 9 vertices, 10 edges.
Graph TestGraph() {
  return FromEdges(9, {{0, 1},
                       {0, 2},
                       {0, 3},
                       {1, 2},
                       {3, 4},
                       {4, 5},
                       {4, 6},
                       {5, 6},
                       {6, 7},
                       {7, 8}});
}

// ---------------------------------------------------------------------------
// EditBatch / parsers
// ---------------------------------------------------------------------------

TEST(EditBatchTest, EndpointsAreSortedAndDeduplicated) {
  EditBatch batch;
  batch.Insert(5, 2);
  batch.Delete(2, 7);
  batch.Insert(0, 5);
  EXPECT_EQ(batch.Endpoints(), (std::vector<VertexId>{0, 2, 5, 7}));
}

TEST(EditParseTest, EditListRoundTrips) {
  auto batch = ParseEditList("add 1 2;del 0 3;add 7 9");
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 3u);
  EXPECT_EQ(batch->edits()[0], (Edit{1, 2, true}));
  EXPECT_EQ(batch->edits()[1], (Edit{0, 3, false}));
  EXPECT_EQ(batch->edits()[2], (Edit{7, 9, true}));
  EXPECT_EQ(FormatEditList(*batch), "add 1 2;del 0 3;add 7 9");

  auto empty = ParseEditList("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(EditParseTest, EditListRejectsMalformedItems) {
  EXPECT_FALSE(ParseEditList("add 1").ok());
  EXPECT_FALSE(ParseEditList("frob 1 2").ok());
  EXPECT_FALSE(ParseEditList("add 1 2 3").ok());
  EXPECT_FALSE(ParseEditList("add x 2").ok());
  EXPECT_FALSE(ParseEditList("add 1 99999999999").ok());
  EXPECT_FALSE(ParseEditList("add -1 2").ok());
}

TEST(EditParseTest, TraceSplitsBatchesAtEpochs) {
  auto batches = ParseEditTrace(
      "# header comment\n"
      "add 0 1\n"
      "del 2 3\n"
      "epoch\n"
      "\n"
      "add 4 5\n"
      "epoch\n");
  ASSERT_TRUE(batches.ok()) << batches.status().ToString();
  ASSERT_EQ(batches->size(), 2u);
  EXPECT_EQ((*batches)[0].size(), 2u);
  EXPECT_EQ((*batches)[1].size(), 1u);
}

TEST(EditParseTest, TraceRejectsTruncationAndEmptyEpochs) {
  // Trailing edits without a closing epoch must not be silently dropped.
  EXPECT_FALSE(ParseEditTrace("add 0 1\nepoch\nadd 2 3\n").ok());
  EXPECT_FALSE(ParseEditTrace("epoch\n").ok());
  EXPECT_FALSE(ParseEditTrace("add 0 1\nepoch\nepoch\n").ok());
}

TEST(EditParseTest, SingleByteCorruptionFuzz) {
  const std::string trace =
      "# fuzz seed\nadd 0 1\ndel 2 3\nepoch\nadd 4 5\nepoch\n";
  const std::string list = "add 1 2;del 0 3;add 7 9";
  Rng rng(0x5EED);
  size_t trace_ok = 0;
  size_t list_ok = 0;
  for (int trial = 0; trial < 200; ++trial) {
    // Half the trials flip to an arbitrary byte (including NUL and high
    // bytes), half to a grammar-adjacent byte so some corruptions stay
    // well-formed.
    const char kNearMisses[] = "0123456789;ad epoch#\n\t -";
    const char byte =
        trial % 2 == 0
            ? static_cast<char>(rng.NextBounded(256))
            : kNearMisses[rng.NextBounded(sizeof(kNearMisses) - 1)];
    std::string t = trace;
    t[rng.NextBounded(t.size())] = byte;
    if (ParseEditTrace(t).ok()) ++trace_ok;

    std::string l = list;
    l[rng.NextBounded(l.size())] = byte;
    if (ParseEditList(l).ok()) ++list_ok;
  }
  // Total parsers: every corrupted input yields ok-or-status, never a
  // crash. Some corruptions keep the input well-formed (digit swaps), so
  // both counters land strictly inside (0, 200).
  EXPECT_GT(trace_ok, 0u);
  EXPECT_LT(trace_ok, 200u);
  EXPECT_GT(list_ok, 0u);
  EXPECT_LT(list_ok, 200u);
}

// ---------------------------------------------------------------------------
// DeltaGraph
// ---------------------------------------------------------------------------

TEST(DeltaGraphTest, ValidationLadderNamesTheOffendingEdit) {
  DeltaGraph delta(TestGraph());

  EditBatch self_loop;
  self_loop.Insert(3, 3);
  Status s = delta.Validate(self_loop);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("self-loop"), std::string::npos);

  EditBatch out_of_range;
  out_of_range.Insert(1, 42);
  s = delta.Validate(out_of_range);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);

  EditBatch duplicate;
  duplicate.Insert(1, 3);
  duplicate.Delete(3, 1);  // Same unordered pair.
  s = delta.Validate(duplicate);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  EditBatch absent;
  absent.Delete(0, 8);
  s = delta.Validate(absent);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);

  EditBatch present;
  present.Insert(0, 1);
  s = delta.Validate(present);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(DeltaGraphTest, RejectedBatchLeavesTheGraphUntouched) {
  DeltaGraph delta(TestGraph());
  const uint64_t before = delta.ContentChecksum();

  EditBatch batch;
  batch.Insert(1, 3);      // Valid in isolation...
  batch.Delete(0, 8);      // ...but this edge is absent.
  EXPECT_EQ(delta.Apply(batch).code(), StatusCode::kNotFound);
  EXPECT_FALSE(delta.HasOverlay());
  EXPECT_EQ(delta.ContentChecksum(), before);
  EXPECT_FALSE(delta.HasEdge(1, 3));
}

TEST(DeltaGraphTest, MergedViewMatchesBruteForce) {
  DeltaGraph delta(TestGraph());
  std::set<std::pair<VertexId, VertexId>> edges;
  const Graph base = TestGraph();
  for (VertexId v = 0; v < base.NumVertices(); ++v) {
    for (VertexId w : base.Neighbors(v)) {
      if (v < w) edges.insert({v, w});
    }
  }

  EditBatch batch;
  batch.Insert(1, 3);
  batch.Delete(0, 1);
  batch.Insert(2, 8);
  batch.Delete(5, 6);
  ASSERT_TRUE(delta.Apply(batch).ok());
  edges.insert({1, 3});
  edges.erase({0, 1});
  edges.insert({2, 8});
  edges.erase({5, 6});

  EXPECT_EQ(delta.NumEdges(), edges.size());
  for (VertexId v = 0; v < delta.NumVertices(); ++v) {
    std::vector<VertexId> expected;
    for (const auto& [a, b] : edges) {
      if (a == v) expected.push_back(b);
      if (b == v) expected.push_back(a);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(delta.NeighborsOf(v), expected) << "vertex " << v;
    EXPECT_EQ(delta.DegreeOf(v), expected.size());
    std::vector<VertexId> walked;
    delta.ForEachNeighbor(v, [&](VertexId w) { walked.push_back(w); });
    EXPECT_EQ(walked, expected);
    for (VertexId w = 0; w < delta.NumVertices(); ++w) {
      const bool present = edges.count({std::min(v, w), std::max(v, w)}) > 0;
      EXPECT_EQ(delta.HasEdge(v, w), v != w && present);
    }
  }
}

TEST(DeltaGraphTest, CompactMaterializesTheMergedView) {
  DeltaGraph delta(TestGraph());
  EditBatch batch;
  batch.Insert(1, 3);
  batch.Delete(4, 6);
  batch.Insert(0, 8);
  ASSERT_TRUE(delta.Apply(batch).ok());

  const Graph compacted = delta.Compact();
  ASSERT_EQ(compacted.NumVertices(), delta.NumVertices());
  EXPECT_EQ(compacted.NumEdges(), delta.NumEdges());
  for (VertexId v = 0; v < delta.NumVertices(); ++v) {
    const std::span<const VertexId> neighbors = compacted.Neighbors(v);
    EXPECT_EQ(std::vector<VertexId>(neighbors.begin(), neighbors.end()),
              delta.NeighborsOf(v));
  }
  EXPECT_EQ(delta.ContentChecksum(), GraphContentChecksum(compacted));

  const uint64_t checksum = delta.ContentChecksum();
  delta.CompactInPlace();
  EXPECT_FALSE(delta.HasOverlay());
  EXPECT_EQ(delta.ContentChecksum(), checksum);
}

TEST(DeltaGraphTest, ChecksumIgnoresBatching) {
  DeltaGraph one_batch(TestGraph());
  EditBatch all;
  all.Insert(1, 3);
  all.Delete(0, 1);
  all.Insert(5, 7);
  ASSERT_TRUE(one_batch.Apply(all).ok());

  DeltaGraph three_batches(TestGraph());
  for (const Edit& e : all.edits()) {
    EditBatch single;
    single.Add(e);
    ASSERT_TRUE(three_batches.Apply(single).ok());
  }
  EXPECT_EQ(one_batch.ContentChecksum(), three_batches.ContentChecksum());

  // Insert-then-delete cancels back to the base checksum.
  DeltaGraph cancel(TestGraph());
  EditBatch ins;
  ins.Insert(1, 3);
  ASSERT_TRUE(cancel.Apply(ins).ok());
  EditBatch del;
  del.Delete(1, 3);
  ASSERT_TRUE(cancel.Apply(del).ok());
  EXPECT_EQ(cancel.ContentChecksum(), GraphContentChecksum(TestGraph()));
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

CachedPlan MakePlan(const Graph& graph) {
  ExecutionContext context(1);
  CachedPlan plan;
  plan.tdv = ComputeTotalDegreePartition(graph, &context);
  plan.partition_checksum = PartitionChecksum(plan.tdv);
  return plan;
}

TEST(PlanCacheTest, CountsHitsAndMisses) {
  PlanCache cache(size_t{1} << 20);
  EXPECT_EQ(cache.GetPlan(7), nullptr);
  auto inserted = cache.PutPlan(7, MakePlan(TestGraph()));
  ASSERT_NE(inserted, nullptr);
  auto hit = cache.GetPlan(7);
  EXPECT_EQ(hit.get(), inserted.get());
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(PlanCacheTest, ReleasesAreKeyedByChecksumAndK) {
  PlanCache cache(size_t{1} << 20);
  ReleaseTriple release;
  release.graph = TestGraph();
  release.partition = MakePlan(release.graph).tdv;
  release.original_vertices = release.graph.NumVertices();
  cache.PutRelease(7, 2, release);
  EXPECT_NE(cache.GetRelease(7, 2), nullptr);
  EXPECT_EQ(cache.GetRelease(7, 3), nullptr);
  EXPECT_EQ(cache.GetRelease(8, 2), nullptr);
}

TEST(PlanCacheTest, RacingInsertReturnsTheIncumbent) {
  PlanCache cache(size_t{1} << 20);
  auto first = cache.PutPlan(7, MakePlan(TestGraph()));
  auto second = cache.PutPlan(7, MakePlan(TestGraph()));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(PlanCacheTest, EvictsPastTheByteBudgetButNeverTheNewInsert) {
  // A cap this small cannot hold two plans; every insert is still
  // admitted, and the LRU entry goes.
  PlanCache cache(1);
  auto first = cache.PutPlan(1, MakePlan(TestGraph()));
  auto second = cache.PutPlan(2, MakePlan(MakeCycle(6)));
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(cache.GetPlan(2).get(), second.get());
  EXPECT_EQ(cache.GetPlan(1), nullptr);  // Evicted.
  const PlanCacheStats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_GT(stats.peak_resident_bytes, stats.resident_bytes);
  // Pinning: the evicted entry stays alive through the held shared_ptr.
  EXPECT_EQ(first->partition_checksum,
            PartitionChecksum(MakePlan(TestGraph()).tdv));
}

// ---------------------------------------------------------------------------
// DynamicSession cache ladder
// ---------------------------------------------------------------------------

TEST(SessionTest, CacheLadderFullThenHitThenRefine) {
  PlanCache cache(size_t{64} << 20);
  DynamicSession session("t", TestGraph(), /*compact_ratio=*/0.5, &cache);
  ExecutionContext context(1);

  // Cold: full refinement.
  auto first = session.Reanonymize(3, &context);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->release_cache_hit);
  EXPECT_FALSE(first->plan_cache_hit);
  EXPECT_EQ(session.stats().full_refines, 1u);
  ASSERT_NE(first->release, nullptr);

  // Warm, same (graph, k): release hit, no refinement at all.
  context.ResetStats();
  auto second = session.Reanonymize(3, &context);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->release_cache_hit);
  EXPECT_EQ(second->release.get(), first->release.get());
  EXPECT_EQ(context.stats().refine_calls, 0u);

  // Warm plan, new k: plan hit, orbit copy only.
  context.ResetStats();
  auto third = session.Reanonymize(2, &context);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->release_cache_hit);
  EXPECT_TRUE(third->plan_cache_hit);
  EXPECT_EQ(context.stats().refine_calls, 0u);
  EXPECT_EQ(third->partition_checksum, first->partition_checksum);

  // Edit + commit + reanonymize: a new graph state, refined in full.
  EditBatch batch;
  batch.Insert(1, 3);
  batch.Delete(0, 1);
  ASSERT_TRUE(session.Stage(batch).ok());
  auto committed = session.Commit();
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(committed->edits, 2u);
  EXPECT_EQ(committed->touched_vertices, 3u);

  auto fourth = session.Reanonymize(3, &context);
  ASSERT_TRUE(fourth.ok());
  EXPECT_FALSE(fourth->release_cache_hit);
  EXPECT_FALSE(fourth->plan_cache_hit);
  EXPECT_EQ(session.stats().full_refines, 2u);
  EXPECT_NE(fourth->graph_checksum, first->graph_checksum);

  // The new plan is exactly the full recompute of the compacted graph.
  ExecutionContext check(1);
  const VertexPartition full =
      ComputeTotalDegreePartition(session.graph().Compact(), &check);
  EXPECT_EQ(fourth->partition_checksum, PartitionChecksum(full));

  // And the new state is itself cached now.
  auto fifth = session.Reanonymize(3, &context);
  ASSERT_TRUE(fifth.ok());
  EXPECT_TRUE(fifth->release_cache_hit);
}

TEST(SessionTest, StageValidatesAgainstTheCommittedGraph) {
  PlanCache cache(size_t{1} << 20);
  DynamicSession session("t", TestGraph(), 0.5, &cache);

  EditBatch bad;
  bad.Delete(0, 8);  // Absent.
  EXPECT_EQ(session.Stage(bad).code(), StatusCode::kNotFound);
  EXPECT_EQ(session.staged_edits(), 0u);

  EditBatch good;
  good.Insert(0, 8);
  ASSERT_TRUE(session.Stage(good).ok());
  // A second stage conflicting with the first fails and leaves the stage.
  EditBatch conflict;
  conflict.Insert(8, 0);
  EXPECT_EQ(session.Stage(conflict).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.staged_edits(), 1u);

  // Committing an empty stage is an error.
  DynamicSession fresh("u", TestGraph(), 0.5, &cache);
  EXPECT_EQ(fresh.Commit().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SessionTest, RegistryCreateAndFind) {
  DynamicRegistry registry(size_t{1} << 20);
  auto created = registry.Create("g", TestGraph(), 0.25);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(registry.num_sessions(), 1u);
  EXPECT_FALSE(registry.Create("g", TestGraph(), 0.25).ok());
  auto found = registry.Find("g");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->get(), created->get());
  auto missing = registry.Find("h");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace dyn
}  // namespace ksym
