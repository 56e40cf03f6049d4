// Shared machinery of the repository benchmark: run options and results,
// the in-memory span tracer, the statistics rules the metrics follow, the
// result-line renderer, peak-memory probes, and the output oracles the
// workloads apply to every release they produce.
//
// Nothing here reaches into the library's internals: spans are recorded
// around calls into public functions, and the oracles only use public
// loaders and verifiers.

#ifndef KSYM_PERFBENCH_BENCH_CORE_H_
#define KSYM_PERFBENCH_BENCH_CORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "graph/graph.h"

namespace ksym {
namespace perfbench {

// ---------------------------------------------------------------------------
// Run options and results.
// ---------------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // Scratch directory for this run's files.
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // One line per failed op or check.

  void Set(std::string_view name, double value, std::string_view unit);
  /// Counts one attempted op; a non-OK status counts it failed and records
  /// the reason.
  void Count(const Status& status);
  /// Records a failed run-level check that is not an op of its own.
  void Fail(std::string reason);
  bool correct() const { return failed == 0 && failures.empty(); }
};

/// The metric-name rule of the result line: 1-64 characters, the first a
/// letter or digit, the rest letters, digits, '_', '.' or '-'.
bool IsValidMetricName(std::string_view name);

/// The unit rule: 1-16 letters, digits, '_', '/', '%', '.' or '-'.
bool IsValidMetricUnit(std::string_view unit);

/// Renders the final result line:
///   {"correct": true, "attempted": N, "failed": F,
///    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
/// Fails if any metric name or unit breaks the rules above or repeats.
Result<std::string> RenderResultLine(const RunResult& result);

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// A tail latency: the highest percentile from a fixed ladder (99.9, 99,
/// 95, 90, 75, 50) that has at least ten samples strictly beyond its
/// nearest-rank position, with the sample count it was read from.
struct TailPercentile {
  double percentile = 0.0;
  double value = 0.0;
  size_t samples = 0;
};
std::optional<TailPercentile> ComputeTailPercentile(std::vector<double> values);

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

/// One timed call into a layer. `request` groups the spans of one daemon
/// request or one workload op; `parent` is 0 for a root span.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  double start = 0.0;  // Seconds since the tracer was created.
  double end = 0.0;
};

/// Collects spans in memory; they are written out once, when the run ends.
/// A disabled tracer records nothing. Thread-safe: each thread nests its
/// own spans, so concurrent clients get independent parent chains.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span under the calling thread's innermost open span. A zero
  /// `request` inherits the parent's. Returns 0 when disabled.
  uint64_t Begin(std::string_view name, uint64_t request = 0);
  void End(uint64_t id);

  std::vector<Span> spans() const;
  Status WriteJson(const std::string& path) const;

 private:
  double Now() const;

  const bool enabled_;
  const uint64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_; index = id - 1.
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  uint64_t id_;
};

/// Self time per span name: each span's duration minus the part of its
/// interval covered by its children (overlapping children counted once),
/// summed over spans of the same name. Also returns the span count per name
/// in `counts` when non-null.
std::map<std::string, double> SelfTimes(
    const std::vector<Span>& spans,
    std::map<std::string, size_t>* counts = nullptr);

// ---------------------------------------------------------------------------
// Process probes and run metadata.
// ---------------------------------------------------------------------------

/// CPU time the whole process has used, every thread, user and system, in
/// seconds. A kernel with paravirtual steal accounting leaves out the time
/// the hypervisor gave to other guests, and no thread is charged while it
/// waits, so on a shared host this drifts far less than wall time.
double ProcessCpuSeconds();

/// CPU time the calling thread has used, in seconds.
double ThreadCpuSeconds();

/// Measures wall time and process CPU time since construction.
class OpTimer {
 public:
  OpTimer() : cpu_start_(ProcessCpuSeconds()) {}

  double WallSeconds() const { return wall_.ElapsedSeconds(); }
  double CpuSeconds() const { return ProcessCpuSeconds() - cpu_start_; }

 private:
  Timer wall_;
  double cpu_start_;
};

/// The host-speed reference: a fixed unit of graph-shaped work (build an
/// adjacency array from a fixed random edge list, then rounds of colour
/// refinement) written here and using nothing from the library, so no
/// change to the program moves it. Returns a checksum of the final colours.
uint64_t RunReferenceKernel();

/// The reference kernel's median CPU time on the host the benchmark was
/// defined on: an Intel Xeon with AVX2, 4 vCPUs of a KVM guest.
inline constexpr double kReferenceKernelSeconds = 0.0215;

/// How fast the shared host runs during a measurement. The neighbours' load
/// moves every CPU time a run measures by up to a third over tens of
/// seconds, and the reference kernel, timed between the ops, moves with it:
/// scaling by Scale() turns a CPU time into CPU time at the speed of the
/// host the benchmark was defined on.
class HostSpeed {
 public:
  /// Runs the reference kernel once on the calling thread and records its
  /// CPU time. Returns that time.
  double Sample();

  /// kReferenceKernelSeconds / the median sample; 1 with no samples.
  double Scale() const;
  double MedianSeconds() const;

 private:
  std::vector<double> seconds_;
};

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS by writing
/// "5" to /proc/self/clear_refs.
Status ResetPeakRss();

/// VmHWM in MiB (0 if /proc is unavailable).
double PeakRssMb();

/// Build type, compiler, SIMD level, hardware concurrency, seed and commit,
/// as one JSON object.
std::string RunMetadataJson(const RunOptions& options);

// ---------------------------------------------------------------------------
// Inputs and oracles.
// ---------------------------------------------------------------------------

/// Configuration-model graph with power-law target degrees
/// P(d) ~ d^-gamma on [1, max_degree], seeded.
Result<Graph> MakePowerLawGraph(size_t n, double gamma, size_t max_degree,
                                uint64_t seed);

/// Whole-file byte comparison; a missing file is an error.
Result<bool> FilesEqual(const std::string& a, const std::string& b);

Result<uint64_t> FileBytes(const std::string& path);

/// Reads the unsigned integer that follows the first occurrence of `key`
/// in `text` (e.g. key "+" after "vertices, " for "+123 edges").
Result<uint64_t> ParseUintAfter(std::string_view text, std::string_view key);

/// The release oracle: the binary release at `release_path` round-trips
/// through ReadReleaseCsrFile, every released cell has at least k members,
/// and the released graph is a supergraph of `input`.
Status CheckBinaryRelease(const Graph& input, const std::string& release_path,
                          uint32_t k);

/// The attack-report oracle: every candidate-set floor the report states
/// for the anonymized release (min orbit, sybil target sets, passive
/// measure tables) is at least k.
Status CheckAttackReport(std::string_view report, uint32_t k);

/// The k-symmetry oracle: IsKSymmetric holds on a released graph.
Status CheckKSymmetric(const Graph& release, uint32_t k);

/// The daemon-reply oracle: a static reply's report is byte-identical to
/// the one-shot API's report for the same request.
Status CheckReplyReport(std::string_view reply, std::string_view expected);

/// The dynamic-session oracle: the partition checksum a reanonymize report
/// states ("partition checksum: <16 hex digits>") equals the checksum of a
/// from-scratch total-degree partition of `graph`, the session's edge set.
Status CheckPartitionChecksum(std::string_view report, const Graph& graph);

/// Two-sample K-S distance between the degree distributions of `a` and `b`.
double DegreeKs(const Graph& a, const Graph& b);

}  // namespace perfbench
}  // namespace ksym

#endif  // KSYM_PERFBENCH_BENCH_CORE_H_
