// ksym_dynamic — replays an edit-trace file against a base graph and
// emits one anonymized release per epoch (DESIGN.md §15).
//
//   ksym_dynamic --input base.ksymcsr --trace edits.trace
//                --output-prefix out --k 3 [--binary] [--emit-graphs]
//
// The trace grammar (dyn/edits.h): one `add U V` / `del U V` per line,
// `epoch` commits the batch and closes an epoch, `#` comments. For each
// epoch the tool stages the batch, commits it (one CSR rebuild), and
// reanonymizes the committed graph (TDV, then Algorithm 1), writing the
// release to `<prefix>.epochN.ksym` (`.ksymcsr` with --binary).
// `--emit-graphs` additionally writes each epoch's committed graph to
// `<prefix>.epochN.graph.ksymcsr`, so CI can cross-check every epoch
// against a from-scratch `ksym_anonymize --tdv` of the same state.
//
// Runs on the same serve/dynamic.h ops the daemon exposes, so reports are
// byte-identical to the daemon's for the same sequence. Deterministic
// facts go to stdout; timings and the session counters go to stderr.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dyn/edits.h"
#include "graph/io.h"
#include "serve/dynamic.h"
#include "tool_common.h"

namespace {

constexpr char kSessionName[] = "replay";

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string trace_path;
  std::string output_prefix;
  uint32_t k = 2;
  bool binary = false;
  bool emit_graphs = false;

  ksym_tools::ArgParser parser(
      "usage: ksym_dynamic --input GRAPH --trace TRACE --output-prefix P\n"
      "                    [--k K] [--binary] [--emit-graphs]");
  parser.String("--input", &input, "base graph (edge list or .ksymcsr)");
  parser.String("--trace", &trace_path,
                "edit-trace file (add/del/epoch lines)");
  parser.String("--output-prefix", &output_prefix,
                "releases are written to <prefix>.epochN[.ksymcsr]");
  parser.U32("--k", &k, "anonymity requirement per epoch (default 2)");
  parser.Flag("--binary", &binary, "write binary .ksymcsr releases");
  parser.Flag("--emit-graphs", &emit_graphs,
              "also write each epoch's committed graph to "
              "<prefix>.epochN.graph.ksymcsr");
  parser.ParseOrExit(argc, argv);
  if (input.empty() || trace_path.empty() || output_prefix.empty()) {
    parser.FailUsage();
  }

  auto batches = ksym::dyn::ParseEditTraceFile(trace_path);
  if (!batches.ok()) return ksym_tools::Fail(batches.status());

  ksym::serve::DynamicState state;

  // Creating mutate: names the base graph, stages nothing.
  ksym::serve::MutateRequest create;
  create.session = kSessionName;
  create.input = input;
  auto created = ksym::serve::RunMutate(create, &state);
  if (!created.ok()) return ksym_tools::Fail(created.status());
  std::printf("%s", created->report.c_str());
  std::fprintf(stderr, "%s", created->log.c_str());

  for (size_t epoch = 1; epoch <= batches->size(); ++epoch) {
    const ksym::dyn::EditBatch& batch = (*batches)[epoch - 1];
    std::printf("epoch %zu:\n", epoch);

    ksym::serve::MutateRequest mutate;
    mutate.session = kSessionName;
    mutate.edits = ksym::dyn::FormatEditList(batch);
    auto staged = ksym::serve::RunMutate(mutate, &state);
    if (!staged.ok()) return ksym_tools::Fail(staged.status());
    std::printf("%s", staged->report.c_str());

    ksym::serve::CommitRequest commit;
    commit.session = kSessionName;
    auto committed = ksym::serve::RunCommit(commit, &state);
    if (!committed.ok()) return ksym_tools::Fail(committed.status());
    std::printf("%s", committed->report.c_str());
    std::fprintf(stderr, "%s", committed->log.c_str());

    ksym::serve::ReanonymizeRequest reanon;
    reanon.session = kSessionName;
    reanon.k = k;
    reanon.binary = binary;
    reanon.output = output_prefix + ".epoch" + std::to_string(epoch) +
                    (binary ? ".ksymcsr" : ".ksym");
    auto released = ksym::serve::RunReanonymize(reanon, &state);
    if (!released.ok()) return ksym_tools::Fail(released.status());
    std::printf("%s", released->report.c_str());
    std::fprintf(stderr, "%s", released->log.c_str());

    if (emit_graphs) {
      auto entry = state.registry.Find(kSessionName);
      if (!entry.ok()) return ksym_tools::Fail(entry.status());
      const std::string graph_path = output_prefix + ".epoch" +
                                     std::to_string(epoch) +
                                     ".graph.ksymcsr";
      const ksym::Status wrote =
          ksym::WriteCsrFile((*entry)->session.graph(), {}, graph_path);
      if (!wrote.ok()) return ksym_tools::Fail(wrote);
      std::printf("wrote %s\n", graph_path.c_str());
    }
  }

  auto entry = state.registry.Find(kSessionName);
  if (entry.ok()) {
    const ksym::dyn::SessionStats& s = (*entry)->session.stats();
    std::fprintf(stderr, "session_mutates: %zu\n", s.mutates);
    std::fprintf(stderr, "session_commits: %zu\n", s.commits);
    std::fprintf(stderr, "session_edits_committed: %zu\n",
                 s.edits_committed);
    std::fprintf(stderr, "session_reanonymizes: %zu\n", s.reanonymizes);
  }
  return 0;
}
