// Tests for release-triple serialization.

#include "ksym/release_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.h"
#include "ksym/anonymizer.h"

namespace ksym {
namespace {

ReleaseTriple MakeTestRelease(uint32_t k) {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(1, 3);
  b.AddEdge(3, 4);
  b.AddEdge(3, 5);
  AnonymizationOptions options;
  options.k = k;
  auto result = Anonymize(b.Build(), options);
  KSYM_CHECK(result.ok());
  return MakeReleaseTriple(*result);
}

TEST(ReleaseIoTest, RoundTrip) {
  const ReleaseTriple release = MakeTestRelease(3);
  std::ostringstream out;
  ASSERT_TRUE(WriteRelease(release, out).ok());
  std::istringstream in(out.str());
  const auto loaded = ReadRelease(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->graph == release.graph);
  EXPECT_TRUE(loaded->partition == release.partition);
  EXPECT_EQ(loaded->original_vertices, release.original_vertices);
}

TEST(ReleaseIoTest, FileRoundTrip) {
  const ReleaseTriple release = MakeTestRelease(2);
  const std::string path = testing::TempDir() + "/ksym_release_test.ksym";
  ASSERT_TRUE(WriteReleaseFile(release, path).ok());
  const auto loaded = ReadReleaseFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->graph == release.graph);
}

TEST(ReleaseIoTest, RejectsMissingHeader) {
  std::istringstream in("original 3\nvertices 3\ncell 0 1 2\n");
  EXPECT_FALSE(ReadRelease(in).ok());
}

TEST(ReleaseIoTest, RejectsIncompleteCellCover) {
  std::istringstream in(
      "# ksym-release 1\noriginal 3\nvertices 3\nedge 0 1\ncell 0 1\n");
  const auto loaded = ReadRelease(in);
  EXPECT_FALSE(loaded.ok());
}

TEST(ReleaseIoTest, RejectsDoubleCover) {
  std::istringstream in(
      "# ksym-release 1\noriginal 2\nvertices 2\ncell 0 1\ncell 1\n");
  EXPECT_FALSE(ReadRelease(in).ok());
}

TEST(ReleaseIoTest, RejectsOutOfRangeVertex) {
  std::istringstream in(
      "# ksym-release 1\noriginal 2\nvertices 2\ncell 0 1 5\n");
  EXPECT_FALSE(ReadRelease(in).ok());
}

// Ids of 2^32 - 1 or more do not fit a VertexId: read modulo 2^32 they
// would name vertex 0.
TEST(ReleaseIoTest, RejectsEdgeIdBeyondVertexIds) {
  std::istringstream in(
      "# ksym-release 1\noriginal 2\nvertices 2\nedge 4294967296 1\n"
      "cell 0 1\n");
  const auto loaded = ReadRelease(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_EQ(loaded.status().message(),
            "line 4: bad edge (ids are below 4294967295)");
}

TEST(ReleaseIoTest, RejectsCellIdBeyondVertexIds) {
  std::istringstream in(
      "# ksym-release 1\noriginal 2\nvertices 2\nedge 0 1\n"
      "cell 4294967296 1\n");
  const auto loaded = ReadRelease(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            "line 5: bad cell (ids are below 4294967295)");
}

// A declared count is checked before anything is allocated for it.
TEST(ReleaseIoTest, RejectsOversizedVertexCount) {
  std::istringstream in(
      "# ksym-release 1\noriginal 2\nvertices 1000000000000000\n"
      "edge 0 1\ncell 0 1\n");
  const auto loaded = ReadRelease(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            "line 3: bad vertices (at most 4294967295)");
}

TEST(ReleaseIoTest, RejectsCellsShortOfVertexCount) {
  std::istringstream in(
      "# ksym-release 1\noriginal 2\nvertices 1000\nedge 0 1\n"
      "cell 0 1\n");
  const auto loaded = ReadRelease(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            "cells list 2 entries for 1000 vertices");
}

TEST(ReleaseIoTest, RejectsOriginalLargerThanRelease) {
  std::istringstream in(
      "# ksym-release 1\noriginal 9\nvertices 2\ncell 0 1\n");
  EXPECT_FALSE(ReadRelease(in).ok());
}

TEST(ReleaseIoTest, RejectsUnknownKeyword) {
  std::istringstream in("# ksym-release 1\nfrobnicate 1\n");
  EXPECT_FALSE(ReadRelease(in).ok());
}

TEST(ReleaseIoTest, ToleratesCommentsAndBlankLines) {
  std::istringstream in(
      "# ksym-release 1\n\n# a comment\noriginal 2\nvertices 2\n"
      "edge 0 1\n\ncell 0 1\n");
  const auto loaded = ReadRelease(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->graph.NumEdges(), 1u);
  EXPECT_EQ(loaded->partition.cells.size(), 1u);
}

}  // namespace
}  // namespace ksym
