// Tests for the common runtime: Status/Result, RNG, string utilities.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/str.h"

namespace ksym {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kUnimplemented,
        StatusCode::kIoError, StatusCode::kInfeasible}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 5);

  Result<int> bad = ParsePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 2);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 400);  // ~4 sigma.
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(17);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  EXPECT_FALSE(rng.NextBernoulli(-0.5));
  EXPECT_TRUE(rng.NextBernoulli(2.0));
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(19);
  const std::vector<double> weights = {0.0, 3.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.NextDiscrete(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[2], 3.0, 0.2);
}

// The sum tree against the scan it replaces in the samplers: cells of mixed
// weights (some zero) drawn until each fills its capacity and is removed.
// Every draw must return NextDiscrete's index over the current weights,
// never a zero-weight or removed one, and leave both generators in the same
// state.
TEST(DiscreteSumTreeTest, MatchesNextDiscreteAsCellsFill) {
  std::vector<size_t> sizes = {1, 2, 3, 7, 64, 1024, 1025, 2000};
  Rng size_rng(41);
  for (int extra = 0; extra < 12; ++extra) {
    sizes.push_back(1 + size_rng.NextBounded(2000));
  }
  for (size_t trial = 0; trial < sizes.size(); ++trial) {
    const size_t n = sizes[trial];
    Rng setup(1000 + trial);
    std::vector<double> weights(n);
    std::vector<uint64_t> capacity(n);
    for (size_t i = 0; i < n; ++i) {
      // About one weight in eight is zero; the rest span four decades.
      weights[i] = setup.NextBounded(8) == 0
                       ? 0.0
                       : (0.5 + setup.NextDouble()) *
                             std::pow(10.0, setup.NextInRange(-2, 1));
      capacity[i] = 1 + setup.NextBounded(4);
    }
    DiscreteSumTree tree(weights);
    Rng tree_rng(trial);
    Rng scan_rng(trial);
    size_t draws = 0;
    while (tree.Total() > 0.0) {
      const size_t i = tree.Draw(tree_rng);
      ASSERT_GT(weights[i], 0.0) << "n " << n << " draw " << draws;
      ASSERT_EQ(i, scan_rng.NextDiscrete(weights))
          << "n " << n << " draw " << draws;
      Rng tree_next = tree_rng;
      Rng scan_next = scan_rng;
      ASSERT_EQ(tree_next.Next(), scan_next.Next());
      if (--capacity[i] == 0) {
        tree.Remove(i);
        weights[i] = 0.0;
      }
      ++draws;
    }
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(weights[i], 0.0) << "n " << n << " index " << i;
    }
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled.begin(), shuffled.end());
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), shuffled.begin()));
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(29);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(RngTest, IndexedForkDoesNotAdvanceParent) {
  Rng a(31);
  Rng b(31);
  (void)a.Fork(0);
  (void)a.Fork(17);
  // The parent stream is untouched by any number of indexed forks.
  EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, IndexedForkIsOrderIndependent) {
  // Fork(i) is a pure function of (state, index): taking the forks in any
  // order — or repeatedly — yields identical streams.
  Rng a(37);
  Rng fork2_first = a.Fork(2);
  Rng fork0_first = a.Fork(0);
  Rng fork0_again = a.Fork(0);
  Rng fork2_again = a.Fork(2);
  for (int i = 0; i < 16; ++i) {
    const uint64_t v0 = fork0_first.Next();
    const uint64_t v2 = fork2_first.Next();
    EXPECT_EQ(v0, fork0_again.Next());
    EXPECT_EQ(v2, fork2_again.Next());
    EXPECT_NE(v0, v2);  // Distinct indices give distinct streams.
  }
}

TEST(RngTest, IndexedForkDependsOnParentState) {
  // Advancing the parent changes what its indexed forks produce — Fork(i)
  // splits the *current* state, it is not a global function of the seed.
  Rng a(41);
  Rng before = a.Fork(5);
  (void)a.Next();
  Rng after = a.Fork(5);
  EXPECT_NE(before.Next(), after.Next());
}

TEST(RngTest, IndexedForkAdjacentIndicesDecorrelated) {
  // Smoke check that nearby indices do not produce aligned streams: over a
  // few hundred draws, adjacent forks should collide (almost) never.
  Rng a(43);
  Rng f0 = a.Fork(0);
  Rng f1 = a.Fork(1);
  int collisions = 0;
  for (int i = 0; i < 256; ++i) {
    collisions += f0.Next() == f1.Next();
  }
  EXPECT_LE(collisions, 1);
}

TEST(StrTest, Split) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StrTest, SplitWhitespace) {
  const auto parts = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[1], "bar");
  EXPECT_EQ(parts[2], "baz");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StrTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  x  "), "x");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace(" \t\n "), "");
}

TEST(StrTest, ParseUint64) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("12345", &v));
  EXPECT_EQ(v, 12345u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));  // UINT64_MAX.
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(ParseUint64("18446744073709551616", &v));  // Overflow.
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("12x", &v));
  EXPECT_FALSE(ParseUint64("-3", &v));
}

TEST(StrTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("3.25abc", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StrTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

}  // namespace
}  // namespace ksym
