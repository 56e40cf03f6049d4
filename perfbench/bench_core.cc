#include "bench_core.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "aut/orbits.h"
#include "common/rng.h"
#include "common/str.h"
#include "dyn/repair.h"
#include "graph/generators.h"
#include "ksym/release_io.h"
#include "ksym/verifier.h"
#include "simd/simd.h"
#include "stats/distributions.h"
#include "stats/ks.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace ksym {
namespace perfbench {

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out;
}

/// Shortest decimal form that reads back as the same double.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  for (int precision = 6; precision <= 17; ++precision) {
    const std::string s = StrFormat("%.*g", precision, value);
    if (std::strtod(s.c_str(), nullptr) == value) return s;
  }
  return StrFormat("%.17g", value);
}

double ClockSeconds(clockid_t clock) {
  timespec now{};
  if (clock_gettime(clock, &now) != 0) return 0.0;
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

uint64_t SteadyNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The calling thread's open spans, innermost last.
thread_local std::vector<uint64_t> open_spans;

}  // namespace

// ---------------------------------------------------------------------------
// RunResult and the result line.
// ---------------------------------------------------------------------------

void RunResult::Set(std::string_view name, double value,
                    std::string_view unit) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = std::string(unit);
      return;
    }
  }
  metrics.push_back({std::string(name), value, std::string(unit)});
}

void RunResult::Count(const Status& status) {
  ++attempted;
  if (!status.ok()) {
    ++failed;
    failures.push_back(status.ToString());
  }
}

void RunResult::Fail(std::string reason) {
  failures.push_back(std::move(reason));
}

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool IsValidMetricUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

Result<std::string> RenderResultLine(const RunResult& result) {
  std::string metrics;
  std::vector<std::string_view> seen;
  for (const Metric& metric : result.metrics) {
    if (!IsValidMetricName(metric.name)) {
      return Status::InvalidArgument("bad metric name: " + metric.name);
    }
    if (!IsValidMetricUnit(metric.unit)) {
      return Status::InvalidArgument("bad unit for " + metric.name);
    }
    if (std::find(seen.begin(), seen.end(), metric.name) != seen.end()) {
      return Status::InvalidArgument("duplicate metric: " + metric.name);
    }
    seen.push_back(metric.name);
    if (!metrics.empty()) metrics += ", ";
    metrics += StrFormat("\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                         metric.name.c_str(),
                         JsonNumber(metric.value).c_str(),
                         metric.unit.c_str());
  }
  return StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}",
      result.correct() ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::optional<TailPercentile> ComputeTailPercentile(
    std::vector<double> values) {
  constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  const size_t n = values.size();
  std::sort(values.begin(), values.end());
  for (const double p : kLadder) {
    // Nearest rank: the smallest rank r with r >= p% of n (1-based).
    const auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank == 0 || n - rank < 10) continue;
    return TailPercentile{p, values[rank - 1], n};
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_ns_(SteadyNanos()) {}

double Tracer::Now() const {
  return static_cast<double>(SteadyNanos() - origin_ns_) * 1e-9;
}

uint64_t Tracer::Begin(std::string_view name, uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.name = std::string(name);
  span.parent = open_spans.empty() ? 0 : open_spans.back();
  span.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  if (span.request == 0 && span.parent != 0) {
    span.request = spans_[span.parent - 1].request;
  }
  span.id = spans_.size() + 1;
  span.start = Now();
  spans_.push_back(std::move(span));
  open_spans.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  const double now = Now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = now;
  }
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Status Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot write " + path);
  out << "[\n";
  const std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << StrFormat(
        "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
        "\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f}%s\n",
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.request),
        JsonEscape(s.name).c_str(), s.start, s.end,
        i + 1 < all.size() ? "," : "");
  }
  out << "]\n";
  return out ? Status::Ok() : Status::IoError("short write to " + path);
}

std::map<std::string, double> SelfTimes(const std::vector<Span>& spans,
                                        std::map<std::string, size_t>* counts) {
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> covered;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const double lo = std::max(c->start, s.start);
        const double hi = std::min(c->end, s.end);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double busy = 0.0;
    double reach = s.start;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) busy += hi - from;
      reach = std::max(reach, hi);
    }
    self[s.name] += (s.end - s.start) - busy;
    if (counts != nullptr) ++(*counts)[s.name];
  }
  return self;
}

// ---------------------------------------------------------------------------
// Process probes and run metadata.
// ---------------------------------------------------------------------------

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

uint64_t RunReferenceKernel() {
  constexpr uint32_t kVertices = 20000;
  constexpr size_t kEdges = 80000;
  constexpr int kRounds = 6;
  static const std::vector<std::pair<uint32_t, uint32_t>> edges = [] {
    std::vector<std::pair<uint32_t, uint32_t>> list(kEdges);
    Rng rng(12345);
    for (auto& [u, v] : list) {
      u = static_cast<uint32_t>(rng.NextBounded(kVertices));
      v = static_cast<uint32_t>(rng.NextBounded(kVertices));
    }
    return list;
  }();
  std::vector<uint32_t> offsets(kVertices + 1, 0);
  for (const auto& [u, v] : edges) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (uint32_t i = 0; i < kVertices; ++i) offsets[i + 1] += offsets[i];
  std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
  std::vector<uint32_t> adjacency(2 * kEdges);
  for (const auto& [u, v] : edges) {
    adjacency[fill[u]++] = v;
    adjacency[fill[v]++] = u;
  }
  // Colour refinement: a vertex's next colour is the rank of the hash of its
  // colour and its neighbours' sorted colours.
  std::vector<uint32_t> color(kVertices, 0);
  std::vector<std::pair<uint64_t, uint32_t>> keys(kVertices);
  std::vector<uint32_t> neighbors;
  for (int round = 0; round < kRounds; ++round) {
    for (uint32_t v = 0; v < kVertices; ++v) {
      neighbors.assign(adjacency.begin() + offsets[v],
                       adjacency.begin() + offsets[v + 1]);
      for (uint32_t& w : neighbors) w = color[w];
      std::sort(neighbors.begin(), neighbors.end());
      uint64_t hash = (color[v] + 1) * 0x9E3779B97F4A7C15ull;
      for (const uint32_t c : neighbors) hash = (hash ^ c) * 0x100000001B3ull;
      keys[v] = {hash, v};
    }
    std::sort(keys.begin(), keys.end());
    uint32_t next = 0;
    for (uint32_t i = 0; i < kVertices; ++i) {
      if (i > 0 && keys[i].first != keys[i - 1].first) ++next;
      color[keys[i].second] = next;
    }
  }
  uint64_t checksum = 0;
  for (uint32_t v = 0; v < kVertices; ++v) checksum += color[v] * (v + 1ull);
  return checksum;
}

double HostSpeed::Sample() {
  const double start = ThreadCpuSeconds();
  volatile uint64_t checksum = RunReferenceKernel();
  static_cast<void>(checksum);
  seconds_.push_back(ThreadCpuSeconds() - start);
  return seconds_.back();
}

double HostSpeed::MedianSeconds() const { return Median(seconds_); }

double HostSpeed::Scale() const {
  return seconds_.empty() ? 1.0 : kReferenceKernelSeconds / MedianSeconds();
}

Status ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return Status::IoError("cannot open /proc/self/clear_refs");
  out << "5";
  out.flush();
  return out ? Status::Ok()
             : Status::IoError("write to /proc/self/clear_refs failed");
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return 0.0;
}

std::string RunMetadataJson(const RunOptions& options) {
  return StrFormat(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %s, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"simd_level\": \"%s\", \"hardware_concurrency\": %u, "
      "\"commit\": \"%s\"}",
      JsonEscape(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      JsonNumber(options.seconds).c_str(), options.trace ? "true" : "false",
      PERFBENCH_BUILD_TYPE, JsonEscape(PERFBENCH_COMPILER).c_str(),
      simd::SimdLevelName(simd::ActiveSimdLevel()),
      std::thread::hardware_concurrency(),
      JsonEscape(options.commit).c_str());
}

// ---------------------------------------------------------------------------
// Inputs and oracles.
// ---------------------------------------------------------------------------

Result<Graph> MakePowerLawGraph(size_t n, double gamma, size_t max_degree,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> degrees(n);
  size_t sum = 0;
  for (size_t& d : degrees) {
    // Inverse-CDF draw from the continuous Pareto tail, truncated.
    const double x = std::pow(1.0 - rng.NextDouble(), -1.0 / (gamma - 1.0));
    d = std::clamp<size_t>(static_cast<size_t>(x), 1, max_degree);
    sum += d;
  }
  if (sum % 2 == 1) ++degrees[0];
  return ConfigurationModel(degrees, rng);
}

Result<bool> FilesEqual(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa) return Status::IoError("cannot read " + a);
  if (!fb) return Status::IoError("cannot read " + b);
  std::istreambuf_iterator<char> ia(fa), ib(fb), end;
  while (ia != end && ib != end) {
    if (*ia != *ib) return false;
    ++ia;
    ++ib;
  }
  return ia == end && ib == end;
}

Result<uint64_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot read " + path);
  return static_cast<uint64_t>(in.tellg());
}

Result<uint64_t> ParseUintAfter(std::string_view text, std::string_view key) {
  const size_t at = text.find(key);
  if (at == std::string_view::npos) {
    return Status::NotFound(StrFormat("\"%.*s\" not in report",
                                      static_cast<int>(key.size()),
                                      key.data()));
  }
  size_t i = at + key.size();
  if (i >= text.size() || text[i] < '0' || text[i] > '9') {
    return Status::InvalidArgument("no number after the key");
  }
  uint64_t value = 0;
  for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
    value = value * 10 + static_cast<uint64_t>(text[i] - '0');
  }
  return value;
}

Status CheckBinaryRelease(const Graph& input, const std::string& release_path,
                          uint32_t k) {
  KSYM_ASSIGN_OR_RETURN(const ReleaseTriple release,
                        ReadReleaseCsrFile(release_path));
  if (release.original_vertices != input.NumVertices()) {
    return Status::Internal("release original count differs from the input");
  }
  for (const auto& cell : release.partition.cells) {
    if (cell.size() < k) {
      return Status::Internal(
          StrFormat("released cell of size %zu < k=%u", cell.size(), k));
    }
  }
  if (!IsSupergraphOf(release.graph, input)) {
    return Status::Internal("release is not a supergraph of the input");
  }
  return Status::Ok();
}

Status CheckAttackReport(std::string_view report, uint32_t k) {
  KSYM_ASSIGN_OR_RETURN(const uint64_t min_orbit,
                        ParseUintAfter(report, "(min orbit "));
  if (min_orbit < k) return Status::Internal("release min orbit below k");

  const size_t anonymized = report.find("sybil attack (anonymized release)");
  if (anonymized == std::string_view::npos) {
    return Status::NotFound("no anonymized sybil section");
  }
  KSYM_ASSIGN_OR_RETURN(
      const uint64_t min_target,
      ParseUintAfter(report.substr(anonymized), "target candidate sets: min "));
  if (min_target < k) {
    return Status::Internal("sybil target candidate set below k");
  }

  const size_t passive = report.find("passive attacks");
  if (passive == std::string_view::npos) {
    return Status::NotFound("no passive attack section");
  }
  std::istringstream lines{std::string(report.substr(passive))};
  std::string line;
  std::getline(lines, line);  // Section title.
  std::getline(lines, line);  // Column header.
  size_t rows = 0;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string name;
    uint64_t cells = 0;
    uint64_t min_size = 0;
    if (!(fields >> name >> cells >> min_size)) break;
    ++rows;
    if (min_size < k) {
      return Status::Internal("passive measure " + name +
                              " has a candidate set below k");
    }
  }
  if (rows == 0) return Status::NotFound("empty passive attack table");
  return Status::Ok();
}

Status CheckKSymmetric(const Graph& release, uint32_t k) {
  if (!IsKSymmetric(release, k)) {
    return Status::Internal(StrFormat("release is not %u-symmetric", k));
  }
  return Status::Ok();
}

Status CheckReplyReport(std::string_view reply, std::string_view expected) {
  if (reply != expected) {
    return Status::Internal("reply report differs from the one-shot report");
  }
  return Status::Ok();
}

Status CheckPartitionChecksum(std::string_view report, const Graph& graph) {
  constexpr std::string_view kKey = "partition checksum: ";
  const size_t at = report.find(kKey);
  if (at == std::string_view::npos) {
    return Status::NotFound("no partition checksum in the report");
  }
  const std::string_view stated = report.substr(at + kKey.size(), 16);
  const std::string expected = StrFormat(
      "%016llx", static_cast<unsigned long long>(dyn::PartitionChecksum(
                     ComputeTotalDegreePartition(graph, nullptr))));
  if (stated != expected) {
    return Status::Internal(StrFormat(
        "partition checksum %.*s, a full TDV gives %s",
        static_cast<int>(stated.size()), stated.data(), expected.c_str()));
  }
  return Status::Ok();
}

double DegreeKs(const Graph& a, const Graph& b) {
  return KolmogorovSmirnovStatistic(DegreeValues(a), DegreeValues(b));
}

}  // namespace perfbench
}  // namespace ksym
