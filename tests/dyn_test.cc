// Tests for the dynamic-graph subsystem (DESIGN.md §15): the edit
// validation ladder, the CSR rebuild against a brute-force edge set, the
// edit-trace parsers (including a single-byte corruption fuzz), and
// DynamicSession / DynamicRegistry.

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "aut/orbits.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dyn/edits.h"
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
// Validation and the CSR rebuild
// ---------------------------------------------------------------------------

TEST(ValidationTest, LadderNamesTheOffendingEdit) {
  const Graph graph = TestGraph();

  EditBatch self_loop;
  self_loop.Insert(3, 3);
  Status s = ValidateEdits(graph, self_loop);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("edit 0 (add 3 3)"), std::string::npos);
  EXPECT_NE(s.message().find("self-loop"), std::string::npos);

  EditBatch out_of_range;
  out_of_range.Insert(1, 42);
  s = ValidateEdits(graph, out_of_range);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);

  EditBatch duplicate;
  duplicate.Insert(1, 3);
  duplicate.Delete(3, 1);  // Same unordered pair.
  s = ValidateEdits(graph, duplicate);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  EditBatch absent;
  absent.Insert(1, 3);
  absent.Delete(0, 8);
  s = ValidateEdits(graph, absent);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("edit 1 (del 0 8)"), std::string::npos);

  EditBatch present;
  present.Insert(0, 1);
  s = ValidateEdits(graph, present);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ValidationTest, RejectedBatchLeavesTheSessionUntouched) {
  EditBatch batch;
  batch.Insert(1, 3);  // Valid in isolation...
  batch.Delete(0, 8);  // ...but this edge is absent.
  EXPECT_EQ(ApplyEdits(TestGraph(), batch).status().code(),
            StatusCode::kNotFound);

  DynamicSession session(TestGraph());
  EXPECT_EQ(session.Stage(batch).code(), StatusCode::kNotFound);
  EXPECT_EQ(session.staged_edits(), 0u);
  EXPECT_EQ(session.stats().mutates, 0u);
  EXPECT_EQ(session.Commit().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.graph(), TestGraph());
}

using Edge = std::pair<VertexId, VertexId>;

Edge Canonical(VertexId u, VertexId v) {
  return {std::min(u, v), std::max(u, v)};
}

std::set<Edge> EdgeSet(const Graph& graph) {
  std::set<Edge> edges;
  graph.ForEachEdge([&](VertexId u, VertexId v) { edges.insert({u, v}); });
  return edges;
}

Graph FromEdgeSet(size_t n, const std::set<Edge>& edges) {
  GraphBuilder builder(n);
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  return builder.Build();
}

TEST(ApplyEditsTest, MatchesBruteForceRebuild) {
  Rng rng(0xED17);
  size_t reinserted_base_edges = 0;
  size_t deleted_inserted_edges = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 8 + rng.NextBounded(24);
    Graph graph = ErdosRenyiGnm(n, n + rng.NextBounded(n), rng);
    const std::set<Edge> base_edges = EdgeSet(graph);
    std::set<Edge> edges = base_edges;
    std::set<Edge> deleted_base;  // Base edges deleted and still absent.
    std::set<Edge> inserted;      // Non-base edges inserted and present.

    for (int commit = 0; commit < 6; ++commit) {
      EditBatch batch;
      std::set<Edge> in_batch;
      // From the second commit on, undo one earlier edit of each kind, with
      // the endpoints swapped.
      if (!deleted_base.empty()) {
        const Edge e = *deleted_base.begin();
        batch.Insert(e.second, e.first);
        in_batch.insert(e);
        ++reinserted_base_edges;
      }
      if (!inserted.empty()) {
        const Edge e = *inserted.begin();
        batch.Delete(e.second, e.first);
        in_batch.insert(e);
        ++deleted_inserted_edges;
      }
      // Then random edits: deletes of present edges and inserts of absent
      // pairs, each pair edited at most once per batch.
      for (int i = 0; i < 4; ++i) {
        if (rng.NextBounded(2) == 0 && !edges.empty()) {
          auto it = edges.begin();
          std::advance(it, rng.NextBounded(edges.size()));
          if (in_batch.insert(*it).second) batch.Delete(it->first, it->second);
          continue;
        }
        const auto u = static_cast<VertexId>(rng.NextBounded(n));
        const auto v = static_cast<VertexId>(rng.NextBounded(n));
        if (u == v || edges.count(Canonical(u, v)) != 0) continue;
        if (in_batch.insert(Canonical(u, v)).second) batch.Insert(u, v);
      }
      ASSERT_FALSE(batch.empty());

      for (const Edit& edit : batch.edits()) {
        const Edge e = Canonical(edit.u, edit.v);
        const bool base = base_edges.count(e) != 0;
        if (edit.insert) {
          edges.insert(e);
          if (base) {
            deleted_base.erase(e);
          } else {
            inserted.insert(e);
          }
        } else {
          edges.erase(e);
          if (base) {
            deleted_base.insert(e);
          } else {
            inserted.erase(e);
          }
        }
      }

      Result<Graph> applied = ApplyEdits(graph, batch);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      graph = std::move(applied).value();
      const Graph expected = FromEdgeSet(n, edges);
      ASSERT_EQ(graph, expected) << "trial " << trial << " commit " << commit;
      EXPECT_EQ(GraphContentChecksum(graph), GraphContentChecksum(expected));
    }
  }
  EXPECT_GT(reinserted_base_edges, 0u);
  EXPECT_GT(deleted_inserted_edges, 0u);
}

// ---------------------------------------------------------------------------
// DynamicSession and DynamicRegistry
// ---------------------------------------------------------------------------

TEST(SessionTest, CommitRebuildsAndEveryReanonymizeRefines) {
  DynamicSession session(TestGraph());
  ExecutionContext context(1);

  auto first = session.Reanonymize(3, &context);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(context.stats().refine_calls, 0u);

  // Nothing is cached: the unchanged graph is refined again, to the same
  // release.
  context.ResetStats();
  auto second = session.Reanonymize(3, &context);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(context.stats().refine_calls, 0u);
  EXPECT_EQ(second->release.graph, first->release.graph);
  EXPECT_EQ(second->release.partition, first->release.partition);
  EXPECT_EQ(second->partition_checksum, first->partition_checksum);

  EditBatch batch;
  batch.Insert(1, 3);
  batch.Delete(0, 1);
  ASSERT_TRUE(session.Stage(batch).ok());
  EXPECT_EQ(session.graph(), TestGraph());  // Staged edits are not applied.
  auto committed = session.Commit();
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(committed->edits, 2u);
  EXPECT_EQ(committed->touched_vertices, 3u);
  EXPECT_EQ(committed->num_edges, 10u);
  EXPECT_EQ(session.staged_edits(), 0u);
  EXPECT_EQ(session.graph(), ApplyEdits(TestGraph(), batch).value());

  auto third = session.Reanonymize(3, &context);
  ASSERT_TRUE(third.ok());
  EXPECT_NE(third->graph_checksum, first->graph_checksum);
  EXPECT_EQ(third->graph_checksum, GraphContentChecksum(session.graph()));
  ExecutionContext check(1);
  EXPECT_EQ(third->partition_checksum,
            PartitionChecksum(
                ComputeTotalDegreePartition(session.graph(), &check)));

  EXPECT_EQ(session.stats().mutates, 1u);
  EXPECT_EQ(session.stats().commits, 1u);
  EXPECT_EQ(session.stats().edits_committed, 2u);
  EXPECT_EQ(session.stats().reanonymizes, 3u);
}

TEST(SessionTest, StageValidatesAgainstTheCommittedGraph) {
  DynamicSession session(TestGraph());

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
  DynamicSession fresh(TestGraph());
  EXPECT_EQ(fresh.Commit().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SessionTest, RegistryCreateAndFind) {
  DynamicRegistry registry;
  auto created = registry.Create("g", TestGraph(), EditBatch());
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(registry.num_sessions(), 1u);
  EXPECT_FALSE(registry.Create("g", TestGraph(), EditBatch()).ok());
  auto found = registry.Find("g");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->get(), created->get());
  auto missing = registry.Find("h");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // A create whose edits fail validation registers nothing; with valid
  // edits the new session has them staged.
  EditBatch bad;
  bad.Delete(0, 8);
  EXPECT_EQ(registry.Create("h", TestGraph(), bad).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.num_sessions(), 1u);
  EditBatch good;
  good.Insert(0, 8);
  auto staged = registry.Create("h", TestGraph(), good);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_EQ((*staged)->session.staged_edits(), 1u);
  EXPECT_EQ(registry.num_sessions(), 2u);
}

}  // namespace
}  // namespace dyn
}  // namespace ksym
