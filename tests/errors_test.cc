// Failure-injection tests: every Status-returning API surface exercised
// with invalid inputs; errors must be reported, not crash or corrupt.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>

#include "baseline/kdegree.h"
#include "baseline/perturbation.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "ksym/anonymizer.h"
#include "ksym/minimal.h"
#include "ksym/sampling.h"
#include "ksym/sharded_anonymizer.h"
#include "serve/api.h"
#include "shard/partitioner.h"

namespace ksym {
namespace {

TEST(ErrorsTest, AnonymizerRejectsZeroK) {
  AnonymizationOptions options;
  options.k = 0;
  const auto result = Anonymize(MakeCycle(4), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ErrorsTest, AnonymizerRejectsMismatchedPartition) {
  const Graph g = MakeCycle(5);
  const VertexPartition wrong = VertexPartition::FromCells(3, {{0, 1, 2}});
  AnonymizationOptions options;
  options.k = 2;
  EXPECT_FALSE(AnonymizeWithPartition(g, wrong, options).ok());
  EXPECT_FALSE(AnonymizeMinimalVertices(g, wrong, options).ok());
}

TEST(ErrorsTest, ShardedAnonymizerRejectsOutOfRangeHubFraction) {
  const std::string prefix = testing::TempDir() + "/errors_hubs";
  PartitionOptions split;
  split.num_shards = 2;
  ASSERT_TRUE(Partitioner::Split(MakeStar(12), {}, split, prefix).ok());
  const auto graph = ShardedGraph::Open(prefix + ".manifest");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const std::string output = prefix + "_out";
  std::filesystem::remove(output + ".manifest");
  for (const double bad : {1.5, 1.0, -0.5, 1e300, std::nan("")}) {
    ShardedAnonymizationOptions options;
    options.k = 3;
    options.exclude_hubs_fraction = bad;
    const auto result = AnonymizeSharded(*graph, options, output);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(std::filesystem::exists(output + ".manifest"));
}

// k = 2^31 on a 3-vertex path asks for 2^32 released vertices, one more id
// than VertexId has: every anonymizer rejects the plan before allocating
// the release.
TEST(ErrorsTest, AnonymizersRejectReleasesBeyondVertexIds) {
  const Graph path = MakePath(3);
  AnonymizationOptions options;
  options.k = 1u << 31;
  for (const bool tdv : {false, true}) {
    options.use_total_degree_partition = tdv;
    const VertexPartition initial =
        tdv ? ComputeTotalDegreePartition(path, nullptr)
            : ComputeAutomorphismPartition(path, {}, nullptr);
    for (const Status& status :
         {Anonymize(path, options).status(),
          AnonymizeWithPartition(path, initial, options).status(),
          AnonymizeMinimalVertices(path, options).status(),
          AnonymizeMinimalVertices(path, initial, options).status()}) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << status.ToString();
      EXPECT_NE(status.message().find("4294967296"), std::string::npos)
          << status.ToString();
    }
  }

  const std::string prefix = testing::TempDir() + "/errors_ids";
  PartitionOptions split;
  split.num_shards = 2;
  ASSERT_TRUE(Partitioner::Split(path, {}, split, prefix).ok());
  const auto graph = ShardedGraph::Open(prefix + ".manifest");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const std::string output = prefix + "_out";
  std::filesystem::remove(output + ".manifest");
  ShardedAnonymizationOptions sharded;
  sharded.k = 1u << 31;
  const auto result = AnonymizeSharded(*graph, sharded, output);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(output + ".manifest"));
}

TEST(ErrorsTest, AnonymizersRejectReleasesBeyondPhysicalMemory) {
  // A 4-vertex star at k = 10^9 fits vertex ids (about 2·10^9 of them) but
  // joins 10^9 hub instances to about 10^9 leaf instances: about 10^18
  // edges, 8·10^18 bytes of CSR, refused before any of it is allocated.
  const Graph star = MakeStar(4);
  AnonymizationOptions options;
  options.k = 1000000000;
  for (const bool tdv : {false, true}) {
    options.use_total_degree_partition = tdv;
    const VertexPartition initial =
        tdv ? ComputeTotalDegreePartition(star, nullptr)
            : ComputeAutomorphismPartition(star, {}, nullptr);
    // Whole-cell copies: 10^9 hub and 3·333,333,334 leaf instances.
    for (const Status& status : {Anonymize(star, options).status(),
                                 AnonymizeWithPartition(star, initial, options)
                                     .status()}) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << status.ToString();
      EXPECT_NE(status.message().find("8000000032000000016 bytes"),
                std::string::npos)
          << status.ToString();
    }
    // One-leaf units: 10^9 instances on each side.
    for (const Status& status :
         {AnonymizeMinimalVertices(star, options).status(),
          AnonymizeMinimalVertices(star, initial, options).status()}) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << status.ToString();
      EXPECT_NE(status.message().find("8000000016000000000 bytes"),
                std::string::npos)
          << status.ToString();
    }
  }

  const std::string input = testing::TempDir() + "/errors_star.edges";
  const std::string output = testing::TempDir() + "/errors_star.release";
  ASSERT_TRUE(WriteEdgeListFile(star, input).ok());
  std::filesystem::remove(output);
  serve::AnonymizeRequest request;
  request.input = input;
  request.output = output;
  request.k = 1000000000;
  const auto response = serve::RunAnonymize(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status().message().find("8000000032000000016 bytes"),
            std::string::npos)
      << response.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(output));
}

TEST(ErrorsTest, SamplersRejectMismatchedInputs) {
  const Graph g = MakeCycle(5);
  const VertexPartition wrong = VertexPartition::FromCells(3, {{0, 1, 2}});
  Rng rng(1);
  EXPECT_FALSE(ExactBackboneSample(g, wrong, 5, rng).ok());
  EXPECT_FALSE(ApproximateBackboneSample(g, wrong, 5, rng).ok());

  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  const std::vector<double> bad_weights(99, 1.0);
  EXPECT_FALSE(ExactBackboneSample(g, orbits, 5, rng, &bad_weights).ok());
  EXPECT_FALSE(
      ApproximateBackboneSample(g, orbits, 5, rng, &bad_weights).ok());

  // One weight per cell, but not finite and non-negative: each sampler and
  // the batch reject it with one error naming the cell and the value.
  const Graph path = MakePath(7);  // Orbits {0, 6}, {1, 5}, {2, 4}, {3}.
  const VertexPartition path_orbits =
      ComputeAutomorphismPartition(path, {}, nullptr);
  ASSERT_EQ(path_orbits.NumCells(), 4u);
  const struct {
    std::vector<double> weights;
    std::string named;
  } bad_values[] = {
      {{1.0, std::nan(""), 1.0, 1.0}, "cell 1 has weight nan"},
      {{-1.0, -1.0, -1.0, -1.0}, "cell 0 has weight -1"},
      {{1.0, 1.0, 1.0, HUGE_VAL}, "cell 3 has weight inf"},
  };
  for (const auto& bad : bad_values) {
    BatchSampleOptions batch;
    batch.num_samples = 2;
    batch.target_vertices = 6;
    batch.weights = &bad.weights;
    const Status statuses[] = {
        ExactBackboneSample(path, path_orbits, 6, rng, &bad.weights).status(),
        ApproximateBackboneSample(path, path_orbits, 6, rng, &bad.weights)
            .status(),
        DrawSamples(path, path_orbits, batch, rng).status(),
    };
    for (const Status& status : statuses) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad.named;
      EXPECT_NE(status.message().find(bad.named), std::string::npos)
          << status.ToString();
    }
  }
}

TEST(ErrorsTest, SamplerHandlesZeroTarget) {
  const Graph g = MakeCycle(5);
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  Rng rng(2);
  const auto sample = ApproximateBackboneSample(g, orbits, 0, rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->NumVertices(), 0u);
}

TEST(ErrorsTest, SamplerHandlesEmptyGraph) {
  Rng rng(3);
  const auto sample = ApproximateBackboneSample(
      Graph(0), VertexPartition::FromCells(0, {}), 0, rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->NumVertices(), 0u);
}

TEST(ErrorsTest, PerturbationRejectsOutOfRangeFraction) {
  Rng rng(4);
  EXPECT_EQ(RandomEdgePerturbation(MakeCycle(5), -0.01, rng).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RandomEdgePerturbation(MakeCycle(5), 1.01, rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ErrorsTest, KDegreeRejectsUndersizedGraph) {
  Rng rng(5);
  const auto result = KDegreeAnonymize(MakePath(2), 3, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ErrorsTest, EdgeListParserReportsLineNumbers) {
  std::istringstream in("0 1\n1 2\nbogus line here\n");
  const auto loaded = ReadEdgeList(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos);
}

TEST(ErrorsTest, ConfigurationModelStatusCodes) {
  Rng rng(6);
  EXPECT_EQ(ConfigurationModel({1, 1, 1}, rng).status().code(),
            StatusCode::kInvalidArgument);  // Odd sum.
  EXPECT_EQ(ConfigurationModel({9, 1}, rng).status().code(),
            StatusCode::kInvalidArgument);  // Degree >= n.
}

TEST(ErrorsTest, StatusPropagationMacro) {
  auto fails = []() -> Status { return Status::NotFound("inner"); };
  auto outer = [&]() -> Status {
    KSYM_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  const Status s = outer();
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "inner");
}

TEST(ErrorsTest, ResultValueOr) {
  const Result<int> good(42);
  EXPECT_EQ(good.value_or(-1), 42);
  const Result<int> bad(Status::NotFound("missing"));
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(ErrorsTest, ResultValueOrMovesFromRvalue) {
  Result<std::vector<int>> good(std::vector<int>{1, 2, 3});
  const std::vector<int> taken = std::move(good).value_or(std::vector<int>{});
  EXPECT_EQ(taken, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(good.value().empty());  // Moved-from, not copied.

  Result<std::vector<int>> bad(Status::Internal("boom"));
  EXPECT_EQ(std::move(bad).value_or(std::vector<int>{9}),
            std::vector<int>{9});
}

TEST(ErrorsTest, AssignOrReturnPropagatesError) {
  auto fails = []() -> Result<int> { return Status::Infeasible("nope"); };
  auto outer = [&]() -> Status {
    KSYM_ASSIGN_OR_RETURN(int x, fails());
    (void)x;
    return Status::Internal("unreachable");
  };
  const Status s = outer();
  EXPECT_EQ(s.code(), StatusCode::kInfeasible);
  EXPECT_EQ(s.message(), "nope");
}

TEST(ErrorsTest, AssignOrReturnDeclaresAndAssigns) {
  auto make = [](int v) -> Result<int> { return v; };
  auto outer = [&]() -> Result<int> {
    KSYM_ASSIGN_OR_RETURN(int x, make(20));
    KSYM_ASSIGN_OR_RETURN(x, make(x + 2));  // Assign to existing variable.
    return x * 2;
  };
  const Result<int> r = outer();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 44);
}

TEST(ErrorsTest, AssignOrReturnMovesTheValue) {
  auto make = []() -> Result<std::vector<int>> {
    return std::vector<int>(1000, 7);
  };
  auto outer = [&]() -> Result<size_t> {
    KSYM_ASSIGN_OR_RETURN(const std::vector<int> values, make());
    return values.size();
  };
  const Result<size_t> r = outer();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 1000u);
}

}  // namespace
}  // namespace ksym
