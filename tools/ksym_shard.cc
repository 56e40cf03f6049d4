// ksym_shard — shard-set management for out-of-core graphs (DESIGN.md §10).
//
//   ksym_shard split  --input G --output-prefix P (--shards N | --max-entries M)
//                     [--no-validate]
//   ksym_shard info   --manifest P.manifest
//   ksym_shard verify --manifest P.manifest
//   ksym_shard merge  --manifest P.manifest --output OUT.ksymcsr
//
// `split` cuts a graph (text or .ksymcsr, detected by magic) into balanced
// vertex-range shard files `P.<i>.ksymcsr` plus the checksummed manifest
// `P.manifest`. `info` prints the manifest and the shard set's degree
// stats. `verify` runs the full validation ladder through
// ShardedGraph::Open — manifest magic / syntax / body checksum / range
// coverage, every shard header against its manifest row, then every
// shard's section checksums and slice structure — and exits 1 on the first
// failing rung. `merge` reassembles the original graph; splitting a
// .ksymcsr and merging it back reproduces the input byte for byte (CI
// round-trips this).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/timer.h"
#include "graph/io.h"
#include "shard/manifest.h"
#include "shard/partitioner.h"
#include "shard/sharded_graph.h"
#include "tool_common.h"

namespace {

using ksym_tools::Fail;

constexpr const char kUsage[] =
    "usage: ksym_shard split  --input G --output-prefix P\n"
    "                         (--shards N | --max-entries M) [--no-validate]\n"
    "       ksym_shard info   --manifest M\n"
    "       ksym_shard verify --manifest M\n"
    "       ksym_shard merge  --manifest M --output OUT";

void PrintManifest(const ksym::ShardManifest& manifest) {
  std::fprintf(stderr, "manifest: %llu vertices, %zu edges (%llu entries), %zu shards\n",
               static_cast<unsigned long long>(manifest.num_vertices),
               manifest.NumEdges(),
               static_cast<unsigned long long>(manifest.num_neighbor_entries),
               manifest.NumShards());
  for (size_t i = 0; i < manifest.shards.size(); ++i) {
    const ksym::ShardInfo& s = manifest.shards[i];
    std::fprintf(stderr,
                 "shard %zu: [%u, %u) %zu vertices, %llu entries, "
                 "header=%016llx, file=%s\n",
                 i, s.begin, s.end, s.NumVertices(),
                 static_cast<unsigned long long>(s.neighbor_entries),
                 static_cast<unsigned long long>(s.header_checksum),
                 s.file.c_str());
  }
}

int RunSplit(const std::string& input, const std::string& prefix,
             const ksym::PartitionOptions& options, bool validate) {
  ksym::CsrReadOptions read_options;
  read_options.validate = validate;
  ksym::Timer timer;
  const auto loaded = ksym::ReadGraphAuto(input, read_options);
  if (!loaded.ok()) return Fail(loaded.status());
  std::fprintf(stderr, "loaded %s: %zu vertices, %zu edges in %.1f ms\n",
               input.c_str(), loaded->graph.NumVertices(),
               loaded->graph.NumEdges(), timer.ElapsedMillis());
  timer.Reset();
  const auto manifest =
      ksym::Partitioner::Split(loaded->graph, loaded->labels, options, prefix);
  if (!manifest.ok()) return Fail(manifest.status());
  std::fprintf(stderr, "wrote %s.manifest in %.1f ms\n", prefix.c_str(),
               timer.ElapsedMillis());
  PrintManifest(*manifest);
  return 0;
}

int RunInfo(const std::string& manifest_path) {
  const auto graph = ksym::ShardedGraph::Open(manifest_path);
  if (!graph.ok()) return Fail(graph.status());
  PrintManifest(graph->manifest());

  size_t min_degree = graph->NumVertices() > 0 ? SIZE_MAX : 0;
  size_t max_degree = 0;
  for (ksym::VertexId v = 0; v < graph->NumVertices(); ++v) {
    const size_t d = graph->Degree(v);
    if (d < min_degree) min_degree = d;
    if (d > max_degree) max_degree = d;
  }
  std::fprintf(stderr, "degrees: min %zu, max %zu, avg %.2f\n", min_degree,
               max_degree,
               graph->NumVertices() > 0
                   ? 2.0 * static_cast<double>(graph->NumEdges()) /
                         static_cast<double>(graph->NumVertices())
                   : 0.0);
  return 0;
}

int RunVerify(const std::string& manifest_path) {
  const auto graph = ksym::ShardedGraph::Open(manifest_path);
  if (!graph.ok()) return Fail(graph.status());
  std::fprintf(stderr,
               "OK: %u shards, %zu vertices, %zu edges verified "
               "(%zu bytes mapped)\n",
               graph->NumShards(), graph->NumVertices(), graph->NumEdges(),
               graph->stats().resident_bytes);
  return 0;
}

int RunMerge(const std::string& manifest_path, const std::string& output) {
  ksym::Timer timer;
  const auto merged = ksym::MergeShards(manifest_path);
  if (!merged.ok()) return Fail(merged.status());
  const ksym::Status status = ksym::WriteCsrFile(*merged, output);
  if (!status.ok()) return Fail(status);
  std::fprintf(stderr, "merged %zu vertices, %zu edges into %s in %.1f ms\n",
               merged->graph.NumVertices(), merged->graph.NumEdges(),
               output.c_str(), timer.ElapsedMillis());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string output;
  std::string prefix;
  std::string manifest;
  ksym::PartitionOptions options;
  bool no_validate = false;

  // Subcommand first, then the shared flag set (each subcommand validates
  // the flags it actually needs).
  ksym_tools::ArgParser parser(kUsage);
  parser.String("--input", &input, "graph to split (text or .ksymcsr)");
  parser.String("--output", &output, "merged output .ksymcsr");
  parser.String("--output-prefix", &prefix,
                "shard files P.<i>.ksymcsr + P.manifest");
  parser.String("--manifest", &manifest, "shard-set manifest file");
  parser.U32("--shards", &options.num_shards, "split into N shards");
  parser.U64("--max-entries", &options.max_entries,
             "split by neighbor-entry budget per shard");
  parser.Flag("--no-validate", &no_validate,
              "skip checksum/structure validation of the split input");
  if (argc < 2) parser.FailUsage();
  const std::string command = argv[1];
  parser.ParseOrExit(argc, argv, 2);

  if (command == "split") {
    if (input.empty() || prefix.empty()) parser.FailUsage();
    return RunSplit(input, prefix, options, !no_validate);
  }
  if (command == "info") {
    if (manifest.empty()) parser.FailUsage();
    return RunInfo(manifest);
  }
  if (command == "verify") {
    if (manifest.empty()) parser.FailUsage();
    return RunVerify(manifest);
  }
  if (command == "merge") {
    if (manifest.empty() || output.empty()) parser.FailUsage();
    return RunMerge(manifest, output);
  }
  parser.FailUsage(
      ksym::StrFormat("unknown command '%s'", command.c_str()).c_str());
}
