// ksym_perfbench: runs one benchmark workload and prints its result line.
//
//   ksym_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR] [--out-dir DIR] [--commit ID]
//   ksym_perfbench --list-metrics
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it holds
// the run metadata. A traced run (--trace 1) also writes its spans to
// <out-dir>/spans-<workload>-<seed>.json. Exit code 0 whenever a result was
// printed (a failed check shows as "correct": false); 1 on a set-up
// failure, 2 on bad flags.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_core.h"
#include "common/str.h"
#include "workloads.h"

namespace {

using ksym::perfbench::RunOptions;

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: ksym_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--out-dir DIR] "
               "[--commit ID] | --list-metrics\n",
               message);
  return 2;
}

bool ParseUint(const char* text, uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

void ListMetrics() {
  for (const auto& spec : ksym::perfbench::EndToEndMetrics()) {
    std::printf("end_to_end %s %s\n", spec.name, spec.unit);
  }
  for (const auto& spec : ksym::perfbench::PerLayerMetrics()) {
    std::printf("per_layer %s %s\n", spec.name, spec.unit);
  }
  for (const std::string& name : ksym::perfbench::WorkloadNames()) {
    std::printf("workload %s\n", name.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string work_root = ".bench_work";
  std::string out_dir = ".bench_out";
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      ListMetrics();
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, options.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, number) || number == 0) {
        return Usage("bad --seconds");
      }
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseUint(value, number) || number > 1) return Usage("bad --trace");
      options.trace = number == 1;
      have_trace = true;
    } else if (flag == "--work-dir") {
      work_root = value;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  // A fresh scratch directory per run; removed again when the run ends.
  namespace fs = std::filesystem;
  options.work_dir = ksym::StrFormat(
      "%s/%s-%llu-%d", work_root.c_str(), options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0);
  std::error_code error;
  fs::remove_all(options.work_dir, error);
  fs::create_directories(options.work_dir, error);
  fs::create_directories(out_dir, error);
  if (error) {
    std::fprintf(stderr, "error: cannot create %s\n",
                 options.work_dir.c_str());
    return 1;
  }

  ksym::perfbench::Tracer tracer(options.trace);
  const ksym::Result<ksym::perfbench::RunResult> result =
      ksym::perfbench::RunWorkload(options, tracer);
  fs::remove_all(options.work_dir, error);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  for (const std::string& failure : result->failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  const ksym::Result<std::string> line =
      ksym::perfbench::RenderResultLine(*result);
  if (!line.ok()) {
    std::fprintf(stderr, "error: %s\n", line.status().ToString().c_str());
    return 1;
  }

  const std::string stem = ksym::StrFormat(
      "%s/%s-%llu", out_dir.c_str(), options.workload.c_str(),
      static_cast<unsigned long long>(options.seed));
  const std::string metadata = ksym::perfbench::RunMetadataJson(options);
  if (options.trace) {
    const ksym::Status written = tracer.WriteJson(stem + ".spans.json");
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  std::ofstream(stem + (options.trace ? ".trace.json" : ".json"))
      << "{\"metadata\": " << metadata << ", \"result\": " << *line << "}\n";
  std::printf("%s\n%s\n", metadata.c_str(), line->c_str());
  return 0;
}
