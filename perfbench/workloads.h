// The benchmark's workloads (see README.md for why each exists):
//
//   release_tdv  one-shot TDV publishes of power-law graphs: one in memory,
//                three out of core under a one-shard budget
//   paper_eval   the paper's evaluation sweep on the Table 1 stand-ins
//   serve_mixed  a closed loop of 4 clients against an in-process daemon
//
// Each workload generates its inputs from the seed during set-up, measures
// for the requested time, checks every output it produces, and fills the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).

#ifndef KSYM_PERFBENCH_WORKLOADS_H_
#define KSYM_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench_core.h"
#include "common/status.h"

namespace ksym {
namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, reported by every workload's untraced run.
const std::vector<MetricSpec>& EndToEndMetrics();

/// Every per-layer metric, reported by every workload's traced run (0 for
/// a layer the workload does not exercise).
const std::vector<MetricSpec>& PerLayerMetrics();

const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Errors are set-up failures (nothing was measured);
/// failed ops and checks are counted in the result instead.
Result<RunResult> RunWorkload(const RunOptions& options, Tracer& tracer);

}  // namespace perfbench
}  // namespace ksym

#endif  // KSYM_PERFBENCH_WORKLOADS_H_
