// ksym_anonymize — command-line publisher tool.
//
// Reads a graph (text edge list, binary .ksymcsr, or a ksym_shard manifest,
// detected by magic) and makes it k-symmetric (optionally excluding the top
// hub fraction per Section 5.2, optionally with the vertex-minimal variant
// of Section 5.1).
//
//   ksym_anonymize --input graph.edges --output release.ksym --k 5
//                  [--exclude-hubs 0.01] [--minimal] [--tdv] [--threads N]
//                  [--binary]
//
// With a manifest input the whole pipeline runs out-of-core (DESIGN.md
// §11): the refinement and copy phases read the edges from the mapped
// shards, --output names the output shard-set *prefix*, and the
// release is written as `<prefix>.<i>.ksymcsr` shards plus
// `<prefix>.manifest` — byte-identical after `ksym_shard merge` to the
// in-memory run's --binary release. Sharded mode requires --tdv (the exact
// orbit search needs random access) and rejects --minimal.
//
//   ksym_anonymize --input graph.manifest --output PREFIX --k 5 --tdv
//                  [--threads N] [--output-shards S]
//
// The tool is a thin adapter over serve/api.h: it parses flags into an
// AnonymizeRequest and executes exactly what the ksym_serve daemon would —
// the deterministic report goes to stdout, timings to stderr.

#include <cstdio>

#include "serve/api.h"
#include "tool_common.h"

int main(int argc, char** argv) {
  ksym::serve::AnonymizeRequest request;
  ksym_tools::ArgParser parser(
      "usage: ksym_anonymize --input graph.edges --output release.ksym\n"
      "                      --k K [--exclude-hubs FRACTION] [--minimal]\n"
      "                      [--tdv] [--threads N] [--binary]\n"
      "       ksym_anonymize --input graph.manifest --output PREFIX\n"
      "                      --k K --tdv [--exclude-hubs FRACTION]\n"
      "                      [--threads N] [--output-shards S]");
  parser.String("--input", &request.input,
                "graph: text edge list, .ksymcsr, or shard manifest");
  parser.String("--output", &request.output,
                "release file (or shard-set prefix for manifest inputs)");
  parser.U32("--k", &request.k, "symmetry requirement (cells of size >= k)");
  parser.F64("--exclude-hubs", &request.exclude_hubs,
             "exclude the top fraction of vertices by degree");
  parser.Flag("--minimal", &request.minimal,
              "vertex-minimal variant (Section 5.1)");
  parser.Flag("--tdv", &request.tdv,
              "use the TDV partition instead of exact orbits (Section 7)");
  parser.Flag("--binary", &request.binary,
              "write the release in binary CSR form");
  parser.U32("--threads", &request.threads, "refinement worker threads");
  parser.U32("--output-shards", &request.output_shards,
             "sharded input: output shard count (0 = same as input)");
  parser.ParseOrExit(argc, argv);
  if (request.input.empty() || request.output.empty() || request.k < 1) {
    parser.FailUsage();
  }

  const auto response = ksym::serve::RunAnonymize(request);
  if (!response.ok()) return ksym_tools::Fail(response.status());
  std::fputs(response->report.c_str(), stdout);
  std::fputs(response->log.c_str(), stderr);
  return 0;
}
