// ksym_audit — command-line privacy auditor.
//
// Reads a graph (text edge list or binary .ksymcsr, detected by magic —
// binary inputs are mmap'ed zero-copy) and reports its exposure to structural
// re-identification: per-measure unique/under-k counts, the orbit-partition
// exposure limit, and whether the graph already satisfies k-symmetry.
//
//   ksym_audit --input graph.edges [--k 5] [--tdv]
//
// The tool is a thin adapter over serve/api.h: the report on stdout is
// byte-identical to the ksym_serve daemon's response for the same
// AuditRequest (the CI smoke test diffs the two).

#include <cstdio>

#include "serve/api.h"
#include "tool_common.h"

int main(int argc, char** argv) {
  ksym::serve::AuditRequest request;
  ksym_tools::ArgParser parser(
      "usage: ksym_audit --input graph.edges [--k K] [--tdv]");
  parser.String("--input", &request.input,
                "graph: text edge list or .ksymcsr");
  parser.U32("--k", &request.k, "symmetry requirement to audit against");
  parser.Flag("--tdv", &request.tdv,
              "use the TDV partition instead of exact orbits (Section 7)");
  parser.ParseOrExit(argc, argv);
  if (request.input.empty()) parser.FailUsage();

  const auto response = ksym::serve::RunAudit(request);
  if (!response.ok()) return ksym_tools::Fail(response.status());
  std::fputs(response->report.c_str(), stdout);
  std::fputs(response->log.c_str(), stderr);
  return 0;
}
