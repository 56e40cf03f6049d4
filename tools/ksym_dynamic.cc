// ksym_dynamic — replays an edit-trace file against a base graph and
// emits one anonymized release per epoch (DESIGN.md §15).
//
//   ksym_dynamic --input base.ksymcsr --trace edits.trace
//                --output-prefix out --k 3 [--binary] [--threads N]
//                [--compact-ratio R] [--plan-bytes B] [--emit-graphs]
//
// The trace grammar (dyn/edits.h): one `add U V` / `del U V` per line,
// `epoch` commits the batch and closes an epoch, `#` comments. For each
// epoch the tool stages the batch, commits it, and reanonymizes through
// the session's cache ladder, writing the release to
// `<prefix>.epochN.ksym` (`.ksymcsr` with --binary). `--emit-graphs`
// additionally writes each epoch's compacted graph to
// `<prefix>.epochN.graph.ksymcsr`, so CI can cross-check every epoch
// against a from-scratch `ksym_anonymize --tdv` of the same state.
//
// Runs on the same serve/dynamic.h ops the daemon exposes, so reports are
// byte-identical to the daemon's for the same sequence. Deterministic
// facts go to stdout; timings and the uniform plan_cache_* / session
// counters (greppable, same keys as the daemon stats op) go to stderr.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/parallel.h"
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
  uint32_t threads = 1;
  double compact_ratio = 0.25;
  uint64_t plan_bytes = 0;
  bool emit_graphs = false;

  ksym_tools::ArgParser parser(
      "usage: ksym_dynamic --input GRAPH --trace TRACE --output-prefix P\n"
      "                    [--k K] [--binary] [--threads N]\n"
      "                    [--compact-ratio R] [--plan-bytes B]\n"
      "                    [--emit-graphs]");
  parser.String("--input", &input, "base graph (edge list or .ksymcsr)");
  parser.String("--trace", &trace_path,
                "edit-trace file (add/del/epoch lines)");
  parser.String("--output-prefix", &output_prefix,
                "releases are written to <prefix>.epochN[.ksymcsr]");
  parser.U32("--k", &k, "anonymity requirement per epoch (default 2)");
  parser.Flag("--binary", &binary, "write binary .ksymcsr releases");
  parser.U32("--threads", &threads, "refinement thread count (default 1)");
  parser.F64("--compact-ratio", &compact_ratio,
             "overlay/base-arc ratio past which a commit compacts "
             "(default 0.25)");
  parser.U64("--plan-bytes", &plan_bytes,
             "plan-cache LRU cap in bytes (default 256 MiB)");
  parser.Flag("--emit-graphs", &emit_graphs,
              "also write each epoch's compacted graph to "
              "<prefix>.epochN.graph.ksymcsr");
  parser.ParseOrExit(argc, argv);
  if (input.empty() || trace_path.empty() || output_prefix.empty()) {
    parser.FailUsage();
  }

  auto batches = ksym::dyn::ParseEditTraceFile(trace_path);
  if (!batches.ok()) return ksym_tools::Fail(batches.status());

  const size_t default_plan_bytes = size_t{256} << 20;
  ksym::serve::DynamicState state(
      plan_bytes > 0 ? static_cast<size_t>(plan_bytes) : default_plan_bytes);

  // Creating mutate: names the base graph, stages nothing.
  ksym::serve::MutateRequest create;
  create.session = kSessionName;
  create.input = input;
  create.compact_ratio = compact_ratio;
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
    reanon.threads = threads;
    reanon.output = output_prefix + ".epoch" + std::to_string(epoch) +
                    (binary ? ".ksymcsr" : ".ksym");
    auto released = ksym::serve::RunReanonymize(reanon, &state);
    if (!released.ok()) return ksym_tools::Fail(released.status());
    std::printf("%s", released->report.c_str());
    std::fprintf(stderr, "%s", released->log.c_str());

    if (emit_graphs) {
      auto entry = state.registry.Find(kSessionName);
      if (!entry.ok()) return ksym_tools::Fail(entry.status());
      const ksym::Graph compacted = (*entry)->session.graph().Compact();
      const std::string graph_path = output_prefix + ".epoch" +
                                     std::to_string(epoch) +
                                     ".graph.ksymcsr";
      const ksym::Status wrote =
          ksym::WriteCsrFile(compacted, {}, graph_path);
      if (!wrote.ok()) return ksym_tools::Fail(wrote);
      std::printf("wrote %s\n", graph_path.c_str());
    }
  }

  // Uniform cache/session counters: same keys as the daemon's stats op,
  // so the CI greps work against either surface.
  const ksym::dyn::PlanCacheStats cache = state.registry.plan_cache().stats();
  std::fprintf(stderr, "plan_cache_hits: %llu\n",
               static_cast<unsigned long long>(cache.hits));
  std::fprintf(stderr, "plan_cache_misses: %llu\n",
               static_cast<unsigned long long>(cache.misses));
  std::fprintf(stderr, "plan_cache_evictions: %llu\n",
               static_cast<unsigned long long>(cache.evictions));
  std::fprintf(stderr, "plan_cache_resident_bytes: %zu\n",
               cache.resident_bytes);
  std::fprintf(stderr, "plan_cache_peak_resident_bytes: %zu\n",
               cache.peak_resident_bytes);
  std::fprintf(stderr, "plan_cache_entries: %zu\n", cache.entries);
  std::fprintf(stderr, "plan_cache_max_bytes: %zu\n",
               state.registry.plan_cache().max_bytes());

  auto entry = state.registry.Find(kSessionName);
  if (entry.ok()) {
    const ksym::dyn::SessionStats& s = (*entry)->session.stats();
    std::fprintf(stderr, "session_mutates: %zu\n", s.mutates);
    std::fprintf(stderr, "session_commits: %zu\n", s.commits);
    std::fprintf(stderr, "session_edits_committed: %zu\n",
                 s.edits_committed);
    std::fprintf(stderr, "session_compactions: %zu\n", s.compactions);
    std::fprintf(stderr, "session_reanonymizes: %zu\n", s.reanonymizes);
    std::fprintf(stderr, "session_release_cache_hits: %zu\n",
                 s.release_cache_hits);
    std::fprintf(stderr, "session_plan_cache_hits: %zu\n",
                 s.plan_cache_hits);
    std::fprintf(stderr, "session_full_refines: %zu\n", s.full_refines);
  }
  return 0;
}
