#include "workloads.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "attack/measures.h"
#include "attack/reidentification.h"
#include "aut/orbits.h"
#include "aut/search.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/str.h"
#include "common/timer.h"
#include "datasets/datasets.h"
#include "graph/io.h"
#include "ksym/anonymizer.h"
#include "ksym/backbone.h"
#include "ksym/release_io.h"
#include "ksym/sampling.h"
#include "ksym/sharded_anonymizer.h"
#include "serve/api.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "shard/partitioner.h"
#include "shard/sharded_graph.h"
#include "simd/simd.h"
#include "stats/distributions.h"
#include "stats/ks.h"

namespace ksym {
namespace perfbench {

namespace {

// ---------------------------------------------------------------------------
// Workload sizes. The graphs are scaled so that one run repeats its unit of
// work several times within the run length.
// ---------------------------------------------------------------------------

constexpr uint32_t kK = 5;
constexpr double kGamma = 2.1;
constexpr size_t kSetupRepeats = 11;
constexpr double kMiB = 1024.0 * 1024.0;

constexpr size_t kTdvVertices = 30000;  // release_tdv input.
constexpr size_t kTdvMaxDegree = 300;
constexpr uint32_t kTdvThreads = 1;

constexpr uint32_t kEvalThreads = 2;  // paper_eval.
constexpr size_t kEvalSamples = 20;
constexpr size_t kPathPairs = 500;  // The paper's path-length protocol.
constexpr uint64_t kSybilSeed = 4;
constexpr int kEvalHostSamples = 3;  // Reference-kernel runs per sweep.

constexpr size_t kServeVertices = 5000;  // serve_mixed base graph.
constexpr size_t kServeMaxDegree = 100;
constexpr uint32_t kServeBudget = 2;  // Daemon thread budget.
constexpr uint32_t kServeRequestThreads = 1;  // So two requests run at once.
constexpr int kServeClients = 4;
constexpr size_t kEpochEdits = 8;
constexpr uint64_t kServeSamples = 1;
constexpr double kServeHostSampleSeconds = 0.5;  // Reference-kernel period.

// release_tdv's out-of-core inputs: several graphs, because the shard
// reload count varies more between graphs than between runs.
constexpr size_t kShardVertices = 3000;
constexpr size_t kShardMaxDegree = 100;
constexpr uint32_t kShards = 8;
constexpr int kShardInstances = 3;

// ---------------------------------------------------------------------------
// Metric catalogue.
// ---------------------------------------------------------------------------

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"op_norm_ms", "ms"},
    {"peak_rss_mb", "MiB"},
    {"edges_added_ratio", "ratio"},
    {"utility_ks", "ratio"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"host.ref_kernel_ms", "ms"},
    {"op_cpu_ms", "ms"},
    {"wall.op_p50_ms", "ms"},
    {"wall.ops_per_s", "1/s"},
    {"graph.load_s", "s"},
    {"graph.load_mb", "MiB"},
    {"aut.tdv_s", "s"},
    {"aut.tdv_s.t1", "s"},
    {"aut.tdv_s.t2", "s"},
    {"aut.refine_calls", "count"},
    {"aut.splitters", "count"},
    {"aut.cells_split", "count"},
    {"aut.parallel_splitters", "count"},
    {"aut.orbits_s.enron", "s"},
    {"aut.orbits_s.hepth", "s"},
    {"aut.search_nodes", "count"},
    {"aut.generators", "count"},
    {"ksym.copy_s", "s"},
    {"ksym.copy_ops", "count"},
    {"ksym.write_s", "s"},
    {"ksym.release_mb", "MiB"},
    {"ksym.backbone_s", "s"},
    {"ksym.sample_s", "s"},
    {"ksym.sample_s.t1", "s"},
    {"ksym.sample_s.t2", "s"},
    {"ksym.verify_s", "s"},
    {"attack.measures_s", "s"},
    {"attack.pipeline_s", "s"},
    {"stats.utility_s", "s"},
    {"stats.utility_s.t1", "s"},
    {"stats.utility_s.t2", "s"},
    {"shard.open_s", "s"},
    {"shard.tdv_s", "s"},
    {"shard.copy_s", "s"},
    {"shard.anonymize_s", "s"},
    {"shard.merge_s", "s"},
    {"shard.loads", "count"},
    {"shard.hits", "count"},
    {"shard.evictions", "count"},
    {"shard.peak_resident_mb", "MiB"},
    {"dyn.repairs", "count"},
    {"dyn.full_refines", "count"},
    {"dyn.plan_hits", "count"},
    {"dyn.release_hits", "count"},
    {"dyn.epoch_p50_ms", "ms"},
    {"serve.requests", "count"},
    {"serve.tail_ms", "ms"},
    {"serve.tail_pct", "%"},
    {"serve.wait_ms", "ms"},
    {"serve.service_ms.anonymize", "ms"},
    {"serve.service_ms.sample", "ms"},
    {"serve.service_ms.audit", "ms"},
    {"serve.service_ms.mutate", "ms"},
    {"serve.service_ms.commit", "ms"},
    {"serve.service_ms.reanonymize", "ms"},
    {"serve.batches", "count"},
    {"serve.batched_requests", "count"},
    {"serve.graph_cache_hits", "count"},
    {"serve.graph_cache_misses", "count"},
    {"serve.rejected_busy", "count"},
    {"simd.intersect_calls", "count"},
    {"simd.splitter_dense_calls", "count"},
    {"simd.splitter_scalar_calls", "count"},
    {"simd.bfs_calls", "count"},
    {"trace.untraced_op_s", "s"},
    {"trace.traced_op_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.root_self_s", "s"},
    {"trace.spans", "count"},
};

const std::vector<std::string> kWorkloads = {"release_tdv", "paper_eval",
                                             "serve_mixed"};

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

/// Runs `setup` kSetupRepeats times and returns the median of their process
/// CPU times; each repeat rebuilds the same state from the seed. `teardown`
/// runs before every repeat but the first, outside the timing.
Result<double> TimeSetup(const std::function<Status()>& setup,
                         const std::function<void()>& teardown = {}) {
  std::vector<double> times;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    if (i > 0 && teardown) teardown();
    const OpTimer timer;
    KSYM_RETURN_IF_ERROR(setup());
    times.push_back(timer.CpuSeconds());
  }
  return Median(times);
}

/// Times a set-up kSetupRepeats times, in process CPU time, and reports the
/// median. The first repeat runs before the measured ops; the rest run
/// between ops, at evenly spaced times through the run: the host's speed
/// drifts over seconds, and back-to-back repeats sample only one stretch of
/// it (their run-to-run spread was about three times wider in wall time).
/// Each repeat rebuilds the same state
/// from the seed, so it must not disturb the ops. The peak-RSS mark is
/// reset after every repeat, and the op peaks in between are kept, so the
/// repeats stay out of peak_rss_mb.
class SpreadSetup {
 public:
  SpreadSetup(std::function<Status()> setup, double seconds)
      : setup_(std::move(setup)), seconds_(seconds) {}

  /// The set-up the run needs. Starts the schedule of the repeats.
  Status RunFirst() {
    KSYM_RETURN_IF_ERROR(RunOne());
    schedule_.Reset();
    return Status::Ok();
  }

  /// Runs the repeats that are due by now; call between ops. A failed
  /// repeat fails the run.
  void RunDue(RunResult& result) {
    while (times_.size() < kSetupRepeats &&
           schedule_.ElapsedSeconds() >=
               seconds_ * static_cast<double>(times_.size()) / kSetupRepeats) {
      const Status status = RunOne();
      if (!status.ok()) {
        result.Fail("set-up repeat: " + status.ToString());
        return;
      }
    }
  }

  /// Runs the repeats still missing.
  Status Finish() {
    while (times_.size() < kSetupRepeats) KSYM_RETURN_IF_ERROR(RunOne());
    return Status::Ok();
  }

  double seconds() const { return Median(times_); }
  double peak_rss_mb() const { return std::max(op_peak_mb_, PeakRssMb()); }

 private:
  Status RunOne() {
    if (!times_.empty()) op_peak_mb_ = std::max(op_peak_mb_, PeakRssMb());
    const OpTimer timer;
    KSYM_RETURN_IF_ERROR(setup_());
    times_.push_back(timer.CpuSeconds());
    return ResetPeakRss();
  }

  std::function<Status()> setup_;
  double seconds_;
  Timer schedule_;
  std::vector<double> times_;
  double op_peak_mb_ = 0.0;
};

/// Calls op(i) until `seconds` have passed, and at least `min_ops` times.
void RepeatFor(double seconds, size_t min_ops,
               const std::function<void(size_t)>& op) {
  Timer timer;
  for (size_t i = 0; i < min_ops || timer.ElapsedSeconds() < seconds; ++i) {
    op(i);
  }
}

/// The op durations of a traced phase, split by tracer state, and the
/// process CPU times of the untraced ops.
struct TracedPhase {
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<double> untraced_cpu;
  double ops() const {
    return static_cast<double>(untraced.size() + traced.size());
  }
};

/// The traced phase: calls op(i, tracer) until `seconds` have passed, and
/// at least `min_ops` times, alternating a disabled tracer (even i) with
/// `tracer` (odd i), so the tracing overhead compares the same code in the
/// same state. Only op is timed; `check`, when given, runs after each ok op.
/// The reference kernel runs before every op.
TracedPhase RunTracedPhase(
    double seconds, size_t min_ops, Tracer& tracer, RunResult& result,
    HostSpeed& host, const std::function<Status(size_t, Tracer&)>& op,
    const std::function<Status()>& check = {}) {
  TracedPhase phase;
  Tracer disabled(false);
  RepeatFor(seconds, min_ops, [&](size_t i) {
    const bool on = i % 2 == 1;
    host.Sample();
    const OpTimer timer;
    Status status = op(i, on ? tracer : disabled);
    (on ? phase.traced : phase.untraced).push_back(timer.WallSeconds());
    if (!on) phase.untraced_cpu.push_back(timer.CpuSeconds());
    if (status.ok() && check) status = check();
    result.Count(status);
  });
  return phase;
}

/// Calls fn `repeats` times inside root spans named `span` and returns the
/// median duration.
double MedianTimed(Tracer& tracer, const std::string& span, int repeats,
                   const std::function<void()>& fn) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    ScopedSpan scoped(tracer, span);
    Timer timer;
    fn();
    times.push_back(timer.ElapsedSeconds());
  }
  return Median(times);
}

/// Per-op self times of the traced phase: span self time summed by name,
/// divided by the number of traced ops.
class LayerTimes {
 public:
  LayerTimes(const std::vector<Span>& spans, double ops)
      : self_(SelfTimes(spans)), ops_(std::max(ops, 1.0)) {}

  void Set(RunResult& result, const std::string& span,
           const char* metric) const {
    const auto it = self_.find(span);
    result.Set(metric, it == self_.end() ? 0.0 : it->second / ops_, "s");
  }

 private:
  std::map<std::string, double> self_;
  double ops_;
};

/// SIMD kernel calls between two snapshots, per op.
void SetSimdCounts(RunResult& result, const simd::SimdCallCounts& start,
                   const simd::SimdCallCounts& end, double ops) {
  const double per = std::max(ops, 1.0);
  result.Set("simd.intersect_calls",
             static_cast<double>(end.intersect + end.intersect_gallop -
                                 start.intersect - start.intersect_gallop) /
                 per,
             "count");
  result.Set("simd.splitter_dense_calls",
             static_cast<double>(end.splitter_dense - start.splitter_dense) /
                 per,
             "count");
  result.Set(
      "simd.splitter_scalar_calls",
      static_cast<double>(end.splitter_scalar - start.splitter_scalar) / per,
      "count");
  result.Set("simd.bfs_calls",
             static_cast<double>(end.bfs_expand - start.bfs_expand) / per,
             "count");
}

/// SIMD kernel calls between construction and Report.
class SimdDelta {
 public:
  SimdDelta() : start_(simd::SimdCallCountsSnapshot()) {}

  void Report(RunResult& result, double ops) const {
    SetSimdCounts(result, start_, simd::SimdCallCountsSnapshot(), ops);
  }

 private:
  simd::SimdCallCounts start_;
};

void SetRefineCounters(RunResult& result, const RefinementStats& stats,
                       double ops) {
  const double per = std::max(ops, 1.0);
  result.Set("aut.refine_calls", static_cast<double>(stats.refine_calls) / per,
             "count");
  result.Set("aut.splitters",
             static_cast<double>(stats.splitters_processed) / per, "count");
  result.Set("aut.cells_split", static_cast<double>(stats.cells_split) / per,
             "count");
  result.Set("aut.parallel_splitters",
             static_cast<double>(stats.parallel_splitters) / per, "count");
}

/// The tracing overhead: the traced op time minus the untraced one, both
/// as means over their ops.
void SetTraceOverhead(RunResult& result, const std::vector<double>& untraced,
                      const std::vector<double>& traced, size_t spans) {
  result.Set("trace.untraced_op_s", Mean(untraced), "s");
  result.Set("trace.traced_op_s", Mean(traced), "s");
  result.Set("trace.overhead_s", Mean(traced) - Mean(untraced), "s");
  result.Set("trace.spans", static_cast<double>(spans), "count");
}

void SetTraceOverhead(RunResult& result, const TracedPhase& phase,
                      size_t spans) {
  SetTraceOverhead(result, phase.untraced, phase.traced, spans);
}

/// The end-to-end metrics. `setup_cpu_s` and `op_cpu_s` are the process
/// CPU times of one set-up and one unit op, both scaled to the reference
/// host speed.
void SetEndToEnd(RunResult& result, const HostSpeed& host, double setup_cpu_s,
                 double peak_rss_mb, double op_cpu_s, double edges_added_ratio,
                 double utility_ks) {
  result.Set("setup_s", setup_cpu_s * host.Scale(), "s");
  result.Set("op_norm_ms", op_cpu_s * host.Scale() * 1e3, "ms");
  result.Set("peak_rss_mb", peak_rss_mb, "MiB");
  result.Set("edges_added_ratio", edges_added_ratio, "ratio");
  result.Set("utility_ks", utility_ks, "ratio");
}

/// num / den, or 0 when nothing was measured (den == 0).
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double OpsPerSecond(const std::vector<double>& latencies) {
  double total = 0.0;
  for (const double t : latencies) total += t;
  return Ratio(static_cast<double>(latencies.size()), total);
}

/// The traced run's unscaled view of its untraced ops: their wall time,
/// what a caller waits for, neighbours included; their process CPU time;
/// and the reference kernel's CPU time, the host's speed.
void SetUnscaled(RunResult& result, const std::vector<double>& latencies,
                 double ops_per_s, double op_cpu_s, const HostSpeed& host) {
  result.Set("wall.op_p50_ms", Median(latencies) * 1e3, "ms");
  result.Set("wall.ops_per_s", ops_per_s, "1/s");
  result.Set("op_cpu_ms", op_cpu_s * 1e3, "ms");
  result.Set("host.ref_kernel_ms", host.MedianSeconds() * 1e3, "ms");
}

void SetUnscaled(RunResult& result, const TracedPhase& phase,
                 const HostSpeed& host) {
  SetUnscaled(result, phase.untraced, OpsPerSecond(phase.untraced),
              Median(phase.untraced_cpu), host);
}

/// Edges added by a publish, read from its report ("+V vertices, +E edges").
Result<uint64_t> EdgesAdded(const std::string& report) {
  return ParseUintAfter(report, "vertices, +");
}

/// Records that a deterministic quantity took the same value on every op.
class Repeatable {
 public:
  Status Observe(uint64_t value, const char* what) {
    if (value_.has_value() && *value_ != value) {
      return Status::Internal(StrFormat("%s changed between ops", what));
    }
    value_ = value;
    return Status::Ok();
  }
  uint64_t value() const { return value_.value_or(0); }

 private:
  std::optional<uint64_t> value_;
};

// ---------------------------------------------------------------------------
// release_tdv: publish rounds through the ksym_anonymize request path, one
// graph in memory and several out of core.
// ---------------------------------------------------------------------------

/// The publish pipeline of RunAnonymize, called layer by layer so each
/// layer gets its own span: load, partition, orbit copy, write.
Status TracedPublish(Tracer& tracer, const std::string& input,
                     const std::string& output, const ExecutionContext& context,
                     size_t* copy_ops) {
  Result<MappedCsrGraph> loaded = [&] {
    ScopedSpan span(tracer, "graph.load");
    return MapCsrFile(input);
  }();
  if (!loaded.ok()) return loaded.status();
  VertexPartition partition;
  {
    ScopedSpan span(tracer, "aut.tdv");
    partition = ComputeTotalDegreePartition(loaded->graph, &context);
  }
  AnonymizationOptions options;
  options.k = kK;
  options.context = &context;
  Result<AnonymizationResult> anonymized = [&] {
    ScopedSpan span(tracer, "ksym.copy");
    return AnonymizeWithPartition(loaded->graph, partition, options);
  }();
  if (!anonymized.ok()) return anonymized.status();
  *copy_ops += anonymized->copy_operations;
  ScopedSpan span(tracer, "ksym.write");
  return WriteReleaseCsrFile(MakeReleaseTriple(*anonymized), output);
}

/// One out-of-core input: a graph, its shard set, the output shard set, and
/// the oracle's reference release.
struct ShardInstance {
  std::string input;      // Whole input graph, for the reference release.
  std::string manifest;   // Input shard set: <shards>.manifest.
  std::string shards;     // Input shard-set prefix.
  std::string output;     // Output shard-set prefix.
  std::string merged;     // The output shard set merged back to one file.
  std::string reference;  // The in-memory release of the same input.
  size_t cap = 0;         // Residency cap: the largest input shard's bytes.
};

/// Writes an instance's graph and splits it into kShards shards.
Status SetupShardInstance(uint64_t seed, ShardInstance& instance) {
  KSYM_ASSIGN_OR_RETURN(const Graph graph,
                        MakePowerLawGraph(kShardVertices, kGamma,
                                          kShardMaxDegree, seed));
  KSYM_RETURN_IF_ERROR(WriteCsrFile(graph, {}, instance.input));
  PartitionOptions split;
  split.num_shards = kShards;
  KSYM_ASSIGN_OR_RETURN(const ShardManifest manifest,
                        Partitioner::Split(graph, {}, split, instance.shards));
  instance.cap = 0;
  for (const ShardInfo& shard : manifest.shards) {
    KSYM_ASSIGN_OR_RETURN(
        const uint64_t bytes,
        FileBytes(ResolveShardPath(instance.manifest, shard)));
    instance.cap = std::max<size_t>(instance.cap, bytes);
  }
  return Status::Ok();
}

/// Merges the output shard set and compares it with the in-memory release.
Status CheckShardedRelease(const ShardInstance& instance) {
  KSYM_ASSIGN_OR_RETURN(const LoadedGraph merged,
                        MergeShards(instance.output + ".manifest"));
  KSYM_RETURN_IF_ERROR(WriteCsrFile(merged, instance.merged));
  KSYM_ASSIGN_OR_RETURN(const bool same,
                        FilesEqual(instance.merged, instance.reference));
  return same ? Status::Ok()
              : Status::Internal(
                    "merged shard set differs from the in-memory release");
}

serve::AnonymizeRequest PublishRequest(const std::string& input,
                                       const std::string& output) {
  serve::AnonymizeRequest request;
  request.input = input;
  request.output = output;
  request.k = kK;
  request.tdv = true;
  request.binary = true;
  request.threads = kTdvThreads;
  return request;
}

/// The out-of-core publish of an instance, under its residency cap.
serve::AnonymizeRequest ShardedRequest(const ShardInstance& instance) {
  serve::AnonymizeRequest request =
      PublishRequest(instance.manifest, instance.output);
  request.resident_bytes = instance.cap;
  return request;
}

/// The traced out-of-core publish: open, anonymize and merge-check, layer
/// by layer.
Status TracedShardedPublish(Tracer& tracer, const ShardInstance& instance,
                            const ExecutionContext& context,
                            ShardResidencyStats* residency) {
  ShardedGraphOptions open_options;
  open_options.max_resident_bytes = instance.cap;
  Result<ShardedGraph> graph = [&] {
    ScopedSpan span(tracer, "shard.open");
    return ShardedGraph::Open(instance.manifest, open_options);
  }();
  if (!graph.ok()) return graph.status();
  ShardedAnonymizationOptions anonymize_options;
  anonymize_options.k = kK;
  anonymize_options.context = &context;
  const Result<ShardedAnonymizationResult> anonymized = [&] {
    ScopedSpan span(tracer, "shard.anonymize");
    return AnonymizeSharded(*graph, anonymize_options, instance.output);
  }();
  if (!anonymized.ok()) return anonymized.status();
  residency->loads += anonymized->residency.loads;
  residency->hits += anonymized->residency.hits;
  residency->evictions += anonymized->residency.evictions;
  residency->peak_resident_bytes =
      std::max(residency->peak_resident_bytes,
               anonymized->residency.peak_resident_bytes);
  ScopedSpan span(tracer, "shard.merge");
  return CheckShardedRelease(instance);
}

Result<RunResult> RunReleaseTdv(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  const std::string input = options.work_dir + "/input.ksymcsr";
  const std::string output = options.work_dir + "/release.ksymcsr";
  std::vector<ShardInstance> instances(kShardInstances);
  for (int i = 0; i < kShardInstances; ++i) {
    const std::string stem = StrFormat("%s/g%d", options.work_dir.c_str(), i);
    instances[i].input = stem + ".ksymcsr";
    instances[i].shards = stem + ".in";
    instances[i].manifest = instances[i].shards + ".manifest";
    instances[i].output = stem + ".out";
    instances[i].merged = stem + ".merged.ksymcsr";
    instances[i].reference = stem + ".reference.ksymcsr";
  }
  SpreadSetup setup(
      [&]() -> Status {
        KSYM_ASSIGN_OR_RETURN(const Graph graph,
                              MakePowerLawGraph(kTdvVertices, kGamma,
                                                kTdvMaxDegree, options.seed));
        KSYM_RETURN_IF_ERROR(WriteCsrFile(graph, {}, input));
        for (int i = 0; i < kShardInstances; ++i) {
          KSYM_RETURN_IF_ERROR(SetupShardInstance(
              options.seed * kShardInstances + static_cast<uint64_t>(i),
              instances[i]));
        }
        return Status::Ok();
      },
      options.seconds);
  KSYM_RETURN_IF_ERROR(setup.RunFirst());
  // Read, not mapped: the set-up repeats rewrite the input file.
  KSYM_ASSIGN_OR_RETURN(const LoadedGraph in, ReadCsrFile(input));
  // The out-of-core oracle's references: the in-memory publish of each
  // instance's input.
  uint64_t input_edges = in.graph.NumEdges();
  for (const ShardInstance& instance : instances) {
    KSYM_ASSIGN_OR_RETURN(const LoadedGraph graph, ReadCsrFile(instance.input));
    KSYM_RETURN_IF_ERROR(
        serve::RunAnonymize(PublishRequest(instance.input, instance.reference))
            .status());
    KSYM_RETURN_IF_ERROR(
        CheckBinaryRelease(graph.graph, instance.reference, kK));
    input_edges += graph.graph.NumEdges();
  }
  KSYM_RETURN_IF_ERROR(ResetPeakRss());  // The references stay out too.

  // One round: the in-memory publish, then every out-of-core one. Only the
  // publishes are timed, not their checks.
  std::vector<double> cpu;
  Repeatable edges_added;
  auto round = [&](size_t) {
    double cpu_s = 0.0;
    const Status status = [&]() -> Status {
      const OpTimer timer;
      KSYM_ASSIGN_OR_RETURN(const serve::Response response,
                            serve::RunAnonymize(PublishRequest(input, output)));
      cpu_s += timer.CpuSeconds();
      KSYM_RETURN_IF_ERROR(CheckBinaryRelease(in.graph, output, kK));
      KSYM_ASSIGN_OR_RETURN(uint64_t edges, EdgesAdded(response.report));
      for (const ShardInstance& instance : instances) {
        const OpTimer sharded_timer;
        KSYM_ASSIGN_OR_RETURN(const serve::Response sharded,
                              serve::RunAnonymize(ShardedRequest(instance)));
        cpu_s += sharded_timer.CpuSeconds();
        KSYM_RETURN_IF_ERROR(CheckShardedRelease(instance));
        KSYM_ASSIGN_OR_RETURN(const uint64_t added,
                              EdgesAdded(sharded.report));
        edges += added;
      }
      return edges_added.Observe(edges, "edges added");
    }();
    result.Count(status);
    if (status.ok()) cpu.push_back(cpu_s);
  };

  HostSpeed host;
  if (!options.trace) {
    RepeatFor(options.seconds, 3, [&](size_t i) {
      host.Sample();
      round(i);
      setup.RunDue(result);
    });
    KSYM_RETURN_IF_ERROR(setup.Finish());
    KSYM_ASSIGN_OR_RETURN(const ReleaseTriple release,
                          ReadReleaseCsrFile(output));
    SetEndToEnd(result, host, setup.seconds(), setup.peak_rss_mb(),
                Median(cpu),
                static_cast<double>(edges_added.value()) /
                    static_cast<double>(input_edges),
                DegreeKs(release.graph, in.graph));
    return result;
  }

  round(0);  // The reference every layer-by-layer release must match.
  const std::string traced_output =
      options.work_dir + "/release.traced.ksymcsr";
  ExecutionContext context(kTdvThreads);
  const ExecutionContext sharded_context(kTdvThreads);
  size_t copy_ops = 0;
  ShardResidencyStats residency;
  const SimdDelta simd;
  const TracedPhase phase = RunTracedPhase(
      options.seconds, 4, tracer, result, host,
      [&](size_t i, Tracer& t) -> Status {
        ScopedSpan root(t, "round", i + 1);
        KSYM_RETURN_IF_ERROR(
            TracedPublish(t, input, traced_output, context, &copy_ops));
        for (const ShardInstance& instance : instances) {
          KSYM_RETURN_IF_ERROR(
              TracedShardedPublish(t, instance, sharded_context, &residency));
        }
        return Status::Ok();
      },
      [&]() -> Status {
        KSYM_ASSIGN_OR_RETURN(const bool same,
                              FilesEqual(traced_output, output));
        return same ? Status::Ok()
                    : Status::Internal(
                          "layer-by-layer release differs from "
                          "RunAnonymize's");
      });
  // Counters cover every op of the phase; span times only the traced ones.
  const double ops = phase.ops();
  simd.Report(result, ops);
  SetRefineCounters(result, context.stats(), ops);
  const std::vector<Span> spans = tracer.spans();
  const LayerTimes layers(spans, static_cast<double>(phase.traced.size()));
  layers.Set(result, "graph.load", "graph.load_s");
  layers.Set(result, "aut.tdv", "aut.tdv_s");
  layers.Set(result, "ksym.copy", "ksym.copy_s");
  layers.Set(result, "ksym.write", "ksym.write_s");
  layers.Set(result, "shard.open", "shard.open_s");
  layers.Set(result, "shard.anonymize", "shard.anonymize_s");
  layers.Set(result, "shard.merge", "shard.merge_s");
  layers.Set(result, "round", "trace.root_self_s");
  SetTraceOverhead(result, phase, spans.size());
  SetUnscaled(result, phase, host);
  result.Set("ksym.copy_ops", static_cast<double>(copy_ops) / ops, "count");
  KSYM_ASSIGN_OR_RETURN(const uint64_t input_bytes, FileBytes(input));
  KSYM_ASSIGN_OR_RETURN(const uint64_t release_bytes, FileBytes(output));
  result.Set("graph.load_mb", static_cast<double>(input_bytes) / kMiB, "MiB");
  result.Set("ksym.release_mb", static_cast<double>(release_bytes) / kMiB,
             "MiB");
  // Inside AnonymizeSharded only the library's phase timers, accumulated in
  // its context, see the split between refinement and orbit copy.
  result.Set("shard.tdv_s", sharded_context.stats().partition_seconds / ops,
             "s");
  result.Set("shard.copy_s", sharded_context.stats().copy_seconds / ops, "s");
  result.Set("shard.loads", static_cast<double>(residency.loads) / ops,
             "count");
  result.Set("shard.hits", static_cast<double>(residency.hits) / ops, "count");
  result.Set("shard.evictions", static_cast<double>(residency.evictions) / ops,
             "count");
  result.Set("shard.peak_resident_mb",
             static_cast<double>(residency.peak_resident_bytes) / kMiB, "MiB");

  // Scaling table: the parallel refiner against the sequential path.
  for (const uint32_t threads : {1u, 2u}) {
    const ExecutionContext scaled(threads);
    const std::string name = StrFormat("aut.tdv.t%u", threads);
    result.Set(StrFormat("aut.tdv_s.t%u", threads),
               MedianTimed(tracer, name, 3,
                           [&] {
                             ComputeTotalDegreePartition(in.graph, &scaled);
                           }),
               "s");
  }
  return result;
}

// ---------------------------------------------------------------------------
// paper_eval: the paper's evaluation on the Table 1 stand-ins.
// ---------------------------------------------------------------------------

struct EvalTotals {
  uint64_t edges_added = 0;
  uint64_t input_edges = 0;
  double ks_sum = 0.0;
  size_t ks_count = 0;
  uint64_t search_nodes = 0;
  uint64_t generators = 0;
  uint64_t copy_ops = 0;
};

/// What the scaling table re-runs: the Hep-Th release and its samples.
struct EvalKeep {
  const Graph* original = nullptr;
  AnonymizationResult release;
  std::vector<Graph> samples;
};

std::string Lowercase(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

/// Figs. 8-9: K-S distances of the degree, clustering and path-length
/// distributions of every sample against the original.
void UtilityKs(const Graph& original, const std::vector<Graph>& samples,
               uint64_t seed, const ExecutionContext* context,
               EvalTotals* totals) {
  Rng rng(seed);
  const std::vector<double> degrees = DegreeValues(original, context);
  const std::vector<double> clustering = ClusteringValues(original, context);
  const std::vector<double> paths =
      SampledPathLengths(original, kPathPairs, rng, context);
  for (const Graph& sample : samples) {
    totals->ks_sum +=
        KolmogorovSmirnovStatistic(degrees, DegreeValues(sample, context)) +
        KolmogorovSmirnovStatistic(clustering,
                                   ClusteringValues(sample, context)) +
        KolmogorovSmirnovStatistic(
            paths, SampledPathLengths(sample, kPathPairs, rng, context));
    totals->ks_count += 3;
  }
}

BatchSampleOptions EvalSampleOptions(const Graph& original,
                                     const ExecutionContext* context) {
  BatchSampleOptions sample_options;
  sample_options.num_samples = kEvalSamples;
  sample_options.target_vertices = original.NumVertices();
  sample_options.context = context;
  return sample_options;
}

Status RunEvalSweep(const std::vector<Dataset>& datasets,
                    const std::string& enron_path, uint64_t seed,
                    const ExecutionContext& context, Tracer& tracer,
                    uint64_t request, EvalTotals* totals, EvalKeep* keep) {
  ScopedSpan root(tracer, "sweep", request);
  std::optional<Graph> enron_release;
  for (size_t d = 0; d < datasets.size(); ++d) {
    const Dataset& dataset = datasets[d];
    const Graph& graph = dataset.graph;
    VertexPartition orbits;
    if (dataset.name == "Net_trace") {
      // Section 7's TDV(G) stands in for Orb(G) here: the exact search on
      // the Net-trace stand-in takes 5-25 s and 0.3-1.6 GiB, more than the
      // rest of the sweep together.
      ScopedSpan span(tracer, "aut.tdv");
      orbits = ComputeTotalDegreePartition(graph, &context);
    } else {
      ScopedSpan span(tracer, "aut.orbits." + Lowercase(dataset.name));
      const AutomorphismResult aut = ComputeAutomorphisms(graph, {}, &context);
      orbits = VertexPartition::FromRepresentatives(aut.orbit_rep);
      totals->search_nodes += aut.nodes;
      totals->generators += aut.generators.size();
    }
    {
      // Fig. 2: the re-identification power of each structural measure.
      ScopedSpan span(tracer, "attack.measures");
      for (const StructuralMeasure& measure :
           {DegreeMeasure(&context), TriangleMeasure(&context),
            NeighborDegreeSequenceMeasure(&context),
            NeighborhoodMeasure(&context), CombinedMeasure(&context)}) {
        const ReidentificationStats stats =
            CompareToOrbits(PartitionByMeasure(graph, measure), orbits);
        if (!(stats.r_f >= 0.0 && stats.r_f <= 1.0)) {
          return Status::Internal("r_f outside [0, 1] for " + measure.name);
        }
      }
    }
    AnonymizationOptions anonymize_options;
    anonymize_options.k = kK;
    anonymize_options.context = &context;
    Result<AnonymizationResult> anonymized = [&] {
      ScopedSpan span(tracer, "ksym.copy");
      return AnonymizeWithPartition(graph, orbits, anonymize_options);
    }();
    if (!anonymized.ok()) return anonymized.status();
    totals->edges_added += anonymized->edges_added;
    totals->input_edges += graph.NumEdges();
    totals->copy_ops += anonymized->copy_operations;
    {
      ScopedSpan span(tracer, "ksym.backbone");
      ComputeBackbone(anonymized->graph, anonymized->partition, &context);
    }
    Result<std::vector<Graph>> samples = [&] {
      ScopedSpan span(tracer, "ksym.sample");
      return DrawSamples(anonymized->graph, anonymized->partition,
                         EvalSampleOptions(graph, &context), Rng(seed + d));
    }();
    if (!samples.ok()) return samples.status();
    {
      ScopedSpan span(tracer, "stats.utility");
      UtilityKs(graph, *samples, seed + d, &context, totals);
    }
    if (dataset.name == "Enron") {
      enron_release = std::move(anonymized->graph);
    } else if (keep != nullptr && dataset.name == "Hepth") {
      keep->original = &graph;
      keep->release = std::move(*anonymized);
      keep->samples = std::move(*samples);
    }
  }
  if (!enron_release.has_value()) {
    return Status::NotFound("no Enron dataset");
  }
  {
    ScopedSpan span(tracer, "ksym.verify");
    KSYM_RETURN_IF_ERROR(CheckKSymmetric(*enron_release, kK));
  }
  serve::AttackRequest attack;
  attack.input = enron_path;
  attack.k = kK;
  attack.seed = kSybilSeed;
  attack.threads = context.threads();
  const Result<serve::Response> response = [&] {
    ScopedSpan span(tracer, "attack.pipeline");
    return serve::RunAttack(attack);
  }();
  if (!response.ok()) return response.status();
  return CheckAttackReport(response->report, kK);
}

Result<RunResult> RunPaperEval(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  const std::string enron_path = options.work_dir + "/enron.ksymcsr";
  std::vector<Dataset> datasets;
  SpreadSetup setup(
      [&]() -> Status {
        // The paper evaluates three fixed networks, and the exact searches
        // (orbits, sybil embeddings) vary several-fold between instances,
        // so the graphs are the fixed stand-ins and the sybil placement is
        // fixed too; the seed drives the analyst's samples and path-length
        // pairs.
        datasets = MakeAllDatasets(kDefaultDatasetSeed);
        for (const Dataset& dataset : datasets) {
          if (dataset.name == "Enron") {
            return WriteCsrFile(dataset.graph, {}, enron_path);
          }
        }
        return Status::NotFound("no Enron dataset");
      },
      options.seconds);
  KSYM_RETURN_IF_ERROR(setup.RunFirst());

  const ExecutionContext context(kEvalThreads);
  HostSpeed host;
  EvalTotals totals;
  // One sweep; the totals are the same on every sweep.
  auto sweep = [&](Tracer& sweep_tracer, uint64_t request,
                   EvalKeep* keep) -> Status {
    EvalTotals sweep_totals;
    const Status status =
        RunEvalSweep(datasets, enron_path, options.seed, context, sweep_tracer,
                     request, &sweep_totals, keep);
    if (status.ok()) totals = sweep_totals;
    return status;
  };

  if (!options.trace) {
    std::vector<double> cpu;
    Tracer untraced(false);
    RepeatFor(options.seconds, 1, [&](size_t i) {
      // A sweep is long, so the host's speed is sampled several times.
      for (int k = 0; k < kEvalHostSamples; ++k) host.Sample();
      const OpTimer timer;
      const Status status = sweep(untraced, i + 1, nullptr);
      cpu.push_back(timer.CpuSeconds());
      result.Count(status);
      setup.RunDue(result);
    });
    KSYM_RETURN_IF_ERROR(setup.Finish());
    // With no completed sweep the totals are empty and the run is already
    // marked incorrect; report 0 rather than 0/0.
    SetEndToEnd(result, host, setup.seconds(), setup.peak_rss_mb(),
                Median(cpu),
                Ratio(static_cast<double>(totals.edges_added),
                      static_cast<double>(totals.input_edges)),
                Ratio(totals.ks_sum, static_cast<double>(totals.ks_count)));
    return result;
  }

  EvalKeep keep;
  const SimdDelta simd;
  const TracedPhase phase = RunTracedPhase(
      options.seconds, 2, tracer, result, host,
      [&](size_t i, Tracer& t) { return sweep(t, i + 1, &keep); });
  // Counters cover every sweep of the phase; span times only the traced ones.
  const double ops = phase.ops();
  simd.Report(result, ops);
  SetRefineCounters(result, context.stats(), ops);
  const std::vector<Span> spans = tracer.spans();
  const LayerTimes layers(spans, static_cast<double>(phase.traced.size()));
  layers.Set(result, "aut.orbits.enron", "aut.orbits_s.enron");
  layers.Set(result, "aut.orbits.hepth", "aut.orbits_s.hepth");
  layers.Set(result, "aut.tdv", "aut.tdv_s");
  layers.Set(result, "attack.measures", "attack.measures_s");
  layers.Set(result, "ksym.copy", "ksym.copy_s");
  layers.Set(result, "ksym.backbone", "ksym.backbone_s");
  layers.Set(result, "ksym.sample", "ksym.sample_s");
  layers.Set(result, "stats.utility", "stats.utility_s");
  layers.Set(result, "ksym.verify", "ksym.verify_s");
  layers.Set(result, "attack.pipeline", "attack.pipeline_s");
  layers.Set(result, "sweep", "trace.root_self_s");
  SetTraceOverhead(result, phase, spans.size());
  SetUnscaled(result, phase, host);
  result.Set("aut.search_nodes", static_cast<double>(totals.search_nodes),
             "count");
  result.Set("aut.generators", static_cast<double>(totals.generators), "count");
  result.Set("ksym.copy_ops", static_cast<double>(totals.copy_ops), "count");

  // Scaling table: batch sampling and the utility kernels at 1 and 2 threads.
  if (keep.original == nullptr) {
    result.Fail("the traced sweep kept no Hep-Th release");
    return result;
  }
  for (const uint32_t threads : {1u, 2u}) {
    const ExecutionContext scaled(threads);
    result.Set(
        StrFormat("ksym.sample_s.t%u", threads),
        MedianTimed(tracer, StrFormat("ksym.sample.t%u", threads), 3, [&] {
          const Result<std::vector<Graph>> samples = DrawSamples(
              keep.release.graph, keep.release.partition,
              EvalSampleOptions(*keep.original, &scaled), Rng(options.seed));
          if (!samples.ok()) result.Fail(samples.status().ToString());
        }),
        "s");
    result.Set(StrFormat("stats.utility_s.t%u", threads),
               MedianTimed(tracer, StrFormat("stats.utility.t%u", threads), 3,
                           [&] {
                             EvalTotals scratch;
                             UtilityKs(*keep.original, keep.samples,
                                       options.seed, &scaled, &scratch);
                           }),
               "s");
  }
  return result;
}

// ---------------------------------------------------------------------------
// serve_mixed: a closed loop of clients against an in-process daemon.
// ---------------------------------------------------------------------------

/// A blocking client connection speaking the daemon's line protocol.
class Connection {
 public:
  static Result<std::unique_ptr<Connection>> Open(const std::string& path) {
    sockaddr_un address{};
    if (path.size() >= sizeof(address.sun_path)) {
      return Status::InvalidArgument("socket path too long: " + path);
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::IoError("socket() failed");
    auto connection = std::unique_ptr<Connection>(new Connection(fd));
    address.sun_family = AF_UNIX;
    std::copy(path.begin(), path.end(), address.sun_path);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) != 0) {
      return Status::IoError("connect() failed: " + path);
    }
    return connection;
  }

  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one request line and blocks until its response line arrives.
  Result<serve::WireObject> Call(const serve::WireObject& request) {
    const std::string line = serve::SerializeWireLine(request) + "\n";
    for (size_t sent = 0; sent < line.size();) {
      const ssize_t n =
          ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return Status::IoError("send() failed");
      sent += static_cast<size_t>(n);
    }
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return Status::IoError("connection closed by the daemon");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    const std::string response = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return serve::ParseWireLine(response);
  }

 private:
  explicit Connection(int fd) : fd_(fd) {}

  int fd_;
  std::string buffer_;
};

serve::WireObject Wire(
    std::initializer_list<std::pair<const char*, serve::WireValue>> fields) {
  serve::WireObject object;
  for (const auto& [key, value] : fields) object.Set(key, value);
  return object;
}

using serve::WireValue;

/// The edge set of one client's dynamic session, kept beside the daemon's
/// copy so every staged edit is valid and the final partition can be
/// recomputed from scratch.
class EdgeMirror {
 public:
  explicit EdgeMirror(const Graph& graph) : n_(graph.NumVertices()) {
    graph.ForEachEdge([&](VertexId u, VertexId v) { Insert(Key(u, v)); });
  }

  /// Draws `count` distinct edits (half adds of absent edges, half deletes
  /// of present ones, by coin flip), applies them, and returns the wire
  /// form ("add u v;del u v;...").
  std::string NextBatch(Rng& rng, size_t count) {
    std::set<uint64_t> touched;
    std::string edits;
    while (touched.size() < count) {
      uint64_t key = 0;
      bool add = rng.NextBernoulli(0.5) || edges_.empty();
      if (add) {
        const auto u = static_cast<VertexId>(rng.NextBounded(n_));
        const auto v = static_cast<VertexId>(rng.NextBounded(n_));
        if (u == v) continue;
        key = Key(u, v);
        if (index_.count(key) != 0) continue;
      } else {
        key = edges_[rng.NextBounded(edges_.size())];
      }
      if (!touched.insert(key).second) continue;
      if (add) {
        Insert(key);
      } else {
        Erase(key);
      }
      if (!edits.empty()) edits += ';';
      edits += StrFormat("%s %llu %llu", add ? "add" : "del",
                         static_cast<unsigned long long>(key / n_),
                         static_cast<unsigned long long>(key % n_));
    }
    return edits;
  }

  Graph Build() const {
    GraphBuilder builder(n_);
    for (const uint64_t key : edges_) {
      builder.AddEdge(static_cast<VertexId>(key / n_),
                      static_cast<VertexId>(key % n_));
    }
    return builder.Build();
  }

 private:
  uint64_t Key(VertexId u, VertexId v) const {
    return u < v ? uint64_t{u} * n_ + v : uint64_t{v} * n_ + u;
  }
  void Insert(uint64_t key) {
    index_[key] = edges_.size();
    edges_.push_back(key);
  }
  void Erase(uint64_t key) {
    const size_t at = index_.at(key);
    edges_[at] = edges_.back();
    index_[edges_[at]] = at;
    edges_.pop_back();
    index_.erase(key);
  }

  uint64_t n_;
  std::vector<uint64_t> edges_;
  std::unordered_map<uint64_t, size_t> index_;
};

struct ServeFiles {
  std::string socket;
  std::string base;
  std::string hepth;
  std::string release;  // The release the sample requests draw from.
};

/// The static requests of client `c`. The one-shot API result of the same
/// wire object is the expected reply.
serve::WireObject AnonymizeWire(const ServeFiles& files,
                                const std::string& dir, int c) {
  return Wire({{"op", WireValue::String("anonymize")},
               {"input", WireValue::String(files.base)},
               {"output", WireValue::String(StrFormat("%s/out.%d.ksymcsr",
                                                      dir.c_str(), c))},
               {"k", WireValue::Uint(kK)},
               {"tdv", WireValue::Bool(true)},
               {"binary", WireValue::Bool(true)},
               {"threads", WireValue::Uint(kServeRequestThreads)}});
}

serve::WireObject SampleWire(const ServeFiles& files, const std::string& dir,
                             int c, uint64_t seed) {
  return Wire({{"op", WireValue::String("sample")},
               {"release", WireValue::String(files.release)},
               {"output_prefix",
                WireValue::String(StrFormat("%s/sample.%d", dir.c_str(), c))},
               {"samples", WireValue::Uint(kServeSamples)},
               {"seed", WireValue::Uint(seed + static_cast<uint64_t>(c))},
               {"threads", WireValue::Uint(1)},
               {"binary", WireValue::Bool(true)}});
}

serve::WireObject AuditWire(const ServeFiles& files) {
  return Wire({{"op", WireValue::String("audit")},
               {"input", WireValue::String(files.hepth)},
               {"k", WireValue::Uint(kK)},
               {"tdv", WireValue::Bool(true)},
               {"threads", WireValue::Uint(kServeRequestThreads)}});
}

std::string SessionName(int c) { return StrFormat("client%d", c); }

Result<std::string> OneShotReport(const serve::WireObject& request) {
  const std::string op = request.GetString("op");
  Result<serve::Response> response = Status::InvalidArgument("op " + op);
  if (op == "anonymize") {
    KSYM_ASSIGN_OR_RETURN(const serve::AnonymizeRequest r,
                          serve::AnonymizeRequestFromWire(request));
    response = serve::RunAnonymize(r);
  } else if (op == "sample") {
    KSYM_ASSIGN_OR_RETURN(const serve::SampleRequest r,
                          serve::SampleRequestFromWire(request));
    response = serve::RunSample(r);
  } else if (op == "audit") {
    KSYM_ASSIGN_OR_RETURN(const serve::AuditRequest r,
                          serve::AuditRequestFromWire(request));
    response = serve::RunAudit(r);
  }
  if (!response.ok()) return response.status();
  return response->report;
}

/// An ok reply's report, or the reply's error as a Status.
Result<std::string> ReplyReport(const Result<serve::WireObject>& reply) {
  if (!reply.ok()) return reply.status();
  if (reply->GetString("status") != "ok") {
    return Status::Internal(StrFormat("daemon replied %s: %s",
                                      reply->GetString("status").c_str(),
                                      reply->GetString("error").c_str()));
  }
  return reply->GetString("report");
}

/// What one client saw during a measured loop.
struct ClientLog {
  std::vector<double> latencies;  // Every request, seconds.
  std::vector<double> epochs;     // mutate -> commit -> reanonymize.
  std::map<std::string, size_t> ops;
  // Static op -> distinct report -> replies carrying it.
  std::map<std::string, std::map<std::string, size_t>> reports;
  std::map<std::string, size_t> reanonymize_paths;
  std::string last_reanonymize_report;
  RunResult counts;  // attempted / failed / failures.
};

enum class ClientOp { kEpoch, kSample, kAnonymize, kAudit };

// One client's repeating schedule: one of each op per cycle, since no
// measured traffic mix gives them weights. Each client starts at its own
// offset, and the mix is the same on every seed.
constexpr ClientOp kSchedule[] = {ClientOp::kEpoch, ClientOp::kSample,
                                  ClientOp::kAnonymize, ClientOp::kAudit};

class ServeClient {
 public:
  ServeClient(int index, const ServeFiles& files, const std::string& dir,
              uint64_t seed, EdgeMirror* mirror, Tracer& tracer)
      : index_(index),
        files_(files),
        dir_(dir),
        seed_(seed),
        rng_(Rng(seed).Fork(static_cast<uint64_t>(index) + 1)),
        mirror_(mirror),
        tracer_(tracer) {}

  /// Issues requests until `stop` is set; returns what it saw.
  ClientLog Run(const std::atomic<bool>& stop, uint64_t request_base) {
    ClientLog log;
    Result<std::unique_ptr<Connection>> connection =
        Connection::Open(files_.socket);
    if (!connection.ok()) {
      log.counts.Count(connection.status());
      return log;
    }
    size_t step = static_cast<size_t>(index_);
    uint64_t request = request_base;
    while (!stop.load(std::memory_order_relaxed)) {
      const ClientOp op = kSchedule[step++ % std::size(kSchedule)];
      ++request;
      switch (op) {
        case ClientOp::kEpoch:
          Epoch(**connection, request, log);
          break;
        case ClientOp::kSample:
          Static(**connection, request, "sample",
                 SampleWire(files_, dir_, index_, seed_), log);
          break;
        case ClientOp::kAnonymize:
          Static(**connection, request, "anonymize",
                 AnonymizeWire(files_, dir_, index_), log);
          break;
        case ClientOp::kAudit:
          Static(**connection, request, "audit", AuditWire(files_), log);
          break;
      }
    }
    return log;
  }

 private:
  /// One request under a span named after its op; `request` 0 joins the
  /// enclosing epoch's id.
  Result<std::string> Call(Connection& connection, const std::string& op,
                           const serve::WireObject& wire, ClientLog& log,
                           uint64_t request = 0) {
    ScopedSpan span(tracer_, "serve." + op, request);
    Timer timer;
    const Result<serve::WireObject> reply = connection.Call(wire);
    log.latencies.push_back(timer.ElapsedSeconds());
    ++log.ops[op];
    Result<std::string> report = ReplyReport(reply);
    log.counts.Count(report.status());
    return report;
  }

  void Static(Connection& connection, uint64_t request, const std::string& op,
              const serve::WireObject& wire, ClientLog& log) {
    const Result<std::string> report =
        Call(connection, op, wire, log, request);
    if (report.ok()) ++log.reports[op][*report];
  }

  void Epoch(Connection& connection, uint64_t request, ClientLog& log) {
    ScopedSpan span(tracer_, "dyn.epoch", request);
    Timer timer;
    const std::string session = SessionName(index_);
    const std::string edits = mirror_->NextBatch(rng_, kEpochEdits);
    if (!Call(connection, "mutate",
              Wire({{"op", WireValue::String("mutate")},
                    {"session", WireValue::String(session)},
                    {"edits", WireValue::String(edits)}}),
              log)
             .ok()) {
      return;
    }
    if (!Call(connection, "commit",
              Wire({{"op", WireValue::String("commit")},
                    {"session", WireValue::String(session)}}),
              log)
             .ok()) {
      return;
    }
    const Result<std::string> report =
        Call(connection, "reanonymize",
             Wire({{"op", WireValue::String("reanonymize")},
                   {"session", WireValue::String(session)},
                   {"k", WireValue::Uint(kK)},
                   {"threads", WireValue::Uint(kServeRequestThreads)}}),
             log);
    if (!report.ok()) return;
    log.epochs.push_back(timer.ElapsedSeconds());
    const size_t via = report->find(" via ");
    const size_t end = report->find('\n', via);
    if (via != std::string::npos) {
      ++log.reanonymize_paths[report->substr(via + 5, end - via - 5)];
    }
    log.last_reanonymize_report = *report;
  }

  int index_;
  const ServeFiles& files_;
  const std::string& dir_;
  uint64_t seed_;
  Rng rng_;
  EdgeMirror* mirror_;
  Tracer& tracer_;
};

/// Writes the inputs, starts the daemon and warms its caches: the graph
/// cache (base graph, Hep-Th, the sample release) and one dynamic session
/// per client on the base graph.
Status SetupServe(const RunOptions& options, const ServeFiles& files,
                  std::unique_ptr<serve::Server>& server) {
  KSYM_ASSIGN_OR_RETURN(const Graph base,
                        MakePowerLawGraph(kServeVertices, kGamma,
                                          kServeMaxDegree, options.seed));
  KSYM_RETURN_IF_ERROR(WriteCsrFile(base, {}, files.base));
  KSYM_RETURN_IF_ERROR(
      WriteCsrFile(MakeHepthLike(options.seed), {}, files.hepth));
  serve::AnonymizeRequest release;
  release.input = files.base;
  release.output = files.release;
  release.k = kK;
  release.tdv = true;
  release.binary = true;
  KSYM_RETURN_IF_ERROR(serve::RunAnonymize(release).status());

  serve::ServerOptions server_options;
  server_options.socket_path = files.socket;
  server_options.thread_budget = kServeBudget;
  server = std::make_unique<serve::Server>(server_options);
  KSYM_RETURN_IF_ERROR(server->Start());

  KSYM_ASSIGN_OR_RETURN(std::unique_ptr<Connection> connection,
                        Connection::Open(files.socket));
  std::vector<serve::WireObject> warmup = {
      AnonymizeWire(files, options.work_dir, 0),
      SampleWire(files, options.work_dir, 0, options.seed),
      AuditWire(files)};
  for (int c = 0; c < kServeClients; ++c) {
    warmup.push_back(Wire({{"op", WireValue::String("mutate")},
                           {"session", WireValue::String(SessionName(c))},
                           {"input", WireValue::String(files.base)}}));
  }
  for (const serve::WireObject& request : warmup) {
    KSYM_RETURN_IF_ERROR(ReplyReport(connection->Call(request)).status());
  }
  return Status::Ok();
}

/// One measured closed loop of kServeClients clients.
struct ServeLoop {
  std::vector<ClientLog> clients;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  // The daemon and the clients together.
  HostSpeed host;  // Sampled by the otherwise idle main thread.
  serve::ServerStats before;
  serve::ServerStats after;
  serve::CacheStats cache_before;
  serve::CacheStats cache_after;
  simd::SimdCallCounts simd_before;  // The daemon runs in this process.
  simd::SimdCallCounts simd_after;
};

ServeLoop RunServeLoop(serve::Server& server, const ServeFiles& files,
                       const std::string& dir, uint64_t seed, double seconds,
                       std::vector<EdgeMirror>& mirrors, Tracer& tracer,
                       uint64_t request_base) {
  ServeLoop loop;
  loop.clients.resize(kServeClients);
  loop.before = server.stats();
  loop.cache_before = server.cache().stats();
  loop.simd_before = simd::SimdCallCountsSnapshot();
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<ServeClient>> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.push_back(std::make_unique<ServeClient>(c, files, dir, seed,
                                                    &mirrors[c], tracer));
  }
  const OpTimer timer;
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kServeClients; ++c) {
      threads.emplace_back([&, c] {
        loop.clients[c] = clients[c]->Run(
            stop, request_base + (static_cast<uint64_t>(c) << 32));
      });
    }
    double kernel_seconds = 0.0;
    Timer since_sample;
    while (timer.WallSeconds() < seconds) {
      if (since_sample.ElapsedSeconds() >= kServeHostSampleSeconds) {
        since_sample.Reset();
        kernel_seconds += loop.host.Sample();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
    loop.cpu_seconds = -kernel_seconds;
  }  // Joins the clients.
  loop.wall_seconds = timer.WallSeconds();
  loop.cpu_seconds += timer.CpuSeconds();
  loop.after = server.stats();
  loop.cache_after = server.cache().stats();
  loop.simd_after = simd::SimdCallCountsSnapshot();
  return loop;
}

/// Folds the loop's counts into `result` and returns every latency.
std::vector<double> MergeLatencies(const ServeLoop& loop, RunResult& result,
                                   std::vector<double>* epochs = nullptr) {
  std::vector<double> latencies;
  for (const ClientLog& client : loop.clients) {
    latencies.insert(latencies.end(), client.latencies.begin(),
                     client.latencies.end());
    if (epochs != nullptr) {
      epochs->insert(epochs->end(), client.epochs.begin(),
                     client.epochs.end());
    }
    result.attempted += client.counts.attempted;
    result.failed += client.counts.failed;
    for (const std::string& failure : client.counts.failures) {
      result.Fail(failure);
    }
  }
  return latencies;
}

/// Compares every static reply with the one-shot API's report for the same
/// request; a reply that differs counts as a failed op.
Status CheckStaticReplies(const std::vector<ServeLoop>& loops,
                          const ServeFiles& files, const std::string& dir,
                          uint64_t seed, RunResult& result,
                          std::string* anonymize_report) {
  for (int c = 0; c < kServeClients; ++c) {
    const std::map<std::string, serve::WireObject> requests = {
        {"anonymize", AnonymizeWire(files, dir, c)},
        {"sample", SampleWire(files, dir, c, seed)},
        {"audit", AuditWire(files)}};
    for (const auto& [op, wire] : requests) {
      KSYM_ASSIGN_OR_RETURN(const std::string expected, OneShotReport(wire));
      if (c == 0 && op == "anonymize") *anonymize_report = expected;
      for (const ServeLoop& loop : loops) {
        const auto it = loop.clients[c].reports.find(op);
        if (it == loop.clients[c].reports.end()) continue;
        for (const auto& [report, count] : it->second) {
          const Status same = CheckReplyReport(report, expected);
          if (same.ok()) continue;
          result.failed += count;
          result.Fail(StrFormat("client %d, %s: %s", c, op.c_str(),
                                same.ToString().c_str()));
        }
      }
    }
  }
  return Status::Ok();
}

Result<RunResult> RunServeMixed(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  const std::string& dir = options.work_dir;
  ServeFiles files;
  files.socket = dir + "/serve.sock";
  files.base = dir + "/base.ksymcsr";
  files.hepth = dir + "/hepth.ksymcsr";
  files.release = dir + "/base.release.ksymcsr";
  std::unique_ptr<serve::Server> daemon;
  KSYM_ASSIGN_OR_RETURN(
      const double setup_s,
      TimeSetup([&] { return SetupServe(options, files, daemon); },
                [&] { daemon.reset(); }));
  KSYM_RETURN_IF_ERROR(ResetPeakRss());
  serve::Server& server = *daemon;
  KSYM_ASSIGN_OR_RETURN(const LoadedGraph base, ReadCsrFile(files.base));
  std::vector<EdgeMirror> mirrors;
  for (int c = 0; c < kServeClients; ++c) mirrors.emplace_back(base.graph);

  Tracer untraced(false);
  std::vector<ServeLoop> loops;
  loops.push_back(RunServeLoop(server, files, dir, options.seed,
                               options.trace ? options.seconds / 2
                                             : options.seconds,
                               mirrors, untraced, 0));
  if (options.trace) {
    loops.push_back(RunServeLoop(server, files, dir, options.seed,
                                 options.seconds / 2, mirrors, tracer,
                                 uint64_t{1} << 40));
  }
  const ServeLoop& measured = loops.back();
  daemon.reset();  // Stops the daemon before the checks.

  std::vector<double> epochs;
  const std::vector<double> untraced_latencies =
      MergeLatencies(loops.front(), result, options.trace ? nullptr : &epochs);
  std::vector<double> latencies = untraced_latencies;
  if (options.trace) latencies = MergeLatencies(measured, result, &epochs);

  std::string anonymize_report;
  KSYM_RETURN_IF_ERROR(CheckStaticReplies(loops, files, dir, options.seed,
                                          result, &anonymize_report));
  // The last epoch of every session against a from-scratch TDV of the
  // edge set the client staged.
  for (int c = 0; c < kServeClients; ++c) {
    const Status same = CheckPartitionChecksum(
        measured.clients[c].last_reanonymize_report, mirrors[c].Build());
    if (!same.ok()) {
      result.Fail(StrFormat("client %d, last epoch: %s", c,
                            same.ToString().c_str()));
    }
  }

  if (!options.trace) {
    KSYM_ASSIGN_OR_RETURN(const uint64_t edges_added,
                          EdgesAdded(anonymize_report));
    // Each client's sample, as written by the one-shot check above.
    double utility_ks = 0.0;
    for (int c = 0; c < kServeClients; ++c) {
      KSYM_ASSIGN_OR_RETURN(
          const LoadedGraph sample,
          ReadCsrFile(StrFormat("%s/sample.%d.0.ksymcsr", dir.c_str(), c)));
      utility_ks += DegreeKs(sample.graph, base.graph) / kServeClients;
    }
    // Requests overlap, so a request's CPU time is the loop's share.
    SetEndToEnd(result, measured.host, setup_s, PeakRssMb(),
                Ratio(measured.cpu_seconds,
                      static_cast<double>(latencies.size())),
                static_cast<double>(edges_added) /
                    static_cast<double>(base.graph.NumEdges()),
                utility_ks);
    return result;
  }

  // Per-layer: daemon counters over the traced loop, per op kind.
  std::map<std::string, size_t> ops;
  std::map<std::string, size_t> paths;
  for (const ClientLog& client : measured.clients) {
    for (const auto& [op, n] : client.ops) ops[op] += n;
    for (const auto& [path, n] : client.reanonymize_paths) paths[path] += n;
  }
  const serve::ServerStats& a = measured.before;
  const serve::ServerStats& b = measured.after;
  const std::pair<const char*, double> service[] = {
      {"anonymize", b.anonymize_seconds - a.anonymize_seconds},
      {"sample", b.sample_seconds - a.sample_seconds},
      {"audit", b.audit_seconds - a.audit_seconds},
      {"mutate", b.mutate_seconds - a.mutate_seconds},
      {"commit", b.commit_seconds - a.commit_seconds},
      {"reanonymize", b.reanonymize_seconds - a.reanonymize_seconds}};
  double service_total = 0.0;
  for (const auto& [op, seconds] : service) {
    service_total += seconds;
    result.Set(StrFormat("serve.service_ms.%s", op),
               ops[op] == 0 ? 0.0
                            : seconds * 1e3 / static_cast<double>(ops[op]),
               "ms");
  }
  result.Set("serve.requests", static_cast<double>(latencies.size()), "count");
  result.Set("serve.wait_ms",
             (Mean(latencies) -
              service_total / static_cast<double>(std::max<size_t>(
                                  latencies.size(), 1))) *
                 1e3,
             "ms");
  if (const auto tail = ComputeTailPercentile(latencies)) {
    result.Set("serve.tail_ms", tail->value * 1e3, "ms");
    result.Set("serve.tail_pct", tail->percentile, "%");
  }
  result.Set("serve.batches", static_cast<double>(b.batches - a.batches),
             "count");
  result.Set("serve.batched_requests",
             static_cast<double>(b.batched_requests - a.batched_requests),
             "count");
  result.Set("serve.rejected_busy",
             static_cast<double>(b.rejected_busy - a.rejected_busy), "count");
  result.Set("serve.graph_cache_hits",
             static_cast<double>(measured.cache_after.hits -
                                 measured.cache_before.hits),
             "count");
  result.Set("serve.graph_cache_misses",
             static_cast<double>(measured.cache_after.misses -
                                 measured.cache_before.misses),
             "count");
  result.Set("dyn.repairs", static_cast<double>(paths["incremental-repair"]),
             "count");
  result.Set("dyn.full_refines", static_cast<double>(paths["full-refine"]),
             "count");
  result.Set("dyn.plan_hits", static_cast<double>(paths["plan-cache-hit"]),
             "count");
  result.Set("dyn.release_hits",
             static_cast<double>(paths["release-cache-hit"]), "count");
  result.Set("dyn.epoch_p50_ms", Median(epochs) * 1e3, "ms");
  // The daemon's kernel calls over the traced loop. The daemon reports no
  // refinement timer, so the aut metrics read 0 here; its refinement cost
  // shows in serve.service_ms.{anonymize,audit,reanonymize}.
  SetSimdCounts(result, measured.simd_before, measured.simd_after, 1.0);
  // The untraced loop ran first, on sessions with fewer edits, so the
  // overhead includes that difference in state.
  SetTraceOverhead(result, untraced_latencies, latencies,
                   tracer.spans().size());
  SetUnscaled(result, untraced_latencies,
              Ratio(static_cast<double>(untraced_latencies.size()),
                    loops.front().wall_seconds),
              Ratio(loops.front().cpu_seconds,
                    static_cast<double>(untraced_latencies.size())),
              loops.front().host);
  return result;
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() { return kEndToEnd; }
const std::vector<MetricSpec>& PerLayerMetrics() { return kPerLayer; }
const std::vector<std::string>& WorkloadNames() { return kWorkloads; }

Result<RunResult> RunWorkload(const RunOptions& options, Tracer& tracer) {
  Result<RunResult> run = Status::InvalidArgument(
      "unknown workload: " + options.workload);
  if (options.workload == "release_tdv") {
    run = RunReleaseTdv(options, tracer);
  } else if (options.workload == "paper_eval") {
    run = RunPaperEval(options, tracer);
  } else if (options.workload == "serve_mixed") {
    run = RunServeMixed(options, tracer);
  }
  if (!run.ok()) return run;

  // Keep exactly the catalogue of this mode: a layer the workload does not
  // exercise reads 0; a missing end-to-end metric is a failed check.
  RunResult& result = *run;
  std::vector<Metric> metrics;
  for (const MetricSpec& spec :
       options.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it =
        std::find_if(result.metrics.begin(), result.metrics.end(),
                     [&](const Metric& m) { return m.name == spec.name; });
    if (it != result.metrics.end()) {
      metrics.push_back(*it);
      continue;
    }
    if (!options.trace) {
      result.Fail(StrFormat("metric %s was not measured", spec.name));
    }
    metrics.push_back({spec.name, 0.0, spec.unit});
  }
  result.metrics = std::move(metrics);
  return run;
}

}  // namespace perfbench
}  // namespace ksym
