// Tests of the benchmark's own helpers: the tail-percentile rule, span
// self-time arithmetic, the metric-name rules, the host-speed scaling, and
// the output oracles, each of which must reject a tampered output: a
// release or report with a single byte flipped, or a k-symmetric release
// with one edge dropped.
//
// Build and run with the benchmark package (from the repository root):
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target perfbench_test
//   ctest --test-dir .bench_build/perfbench

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_core.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "ksym/anonymizer.h"
#include "ksym/release_io.h"
#include "serve/api.h"
#include "serve/dynamic.h"

namespace {

using namespace ksym;
using namespace ksym::perfbench;

int failures = 0;

#define EXPECT(cond)                                               \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                               \
      ++failures;                                                  \
    }                                                              \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void FlipByte(const std::string& path, size_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  file.get(c);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(c ^ 0x01));
}

void TestTailPercentile() {
  // Fewer than 20 samples: even the median has < 10 samples beyond it.
  EXPECT(!ComputeTailPercentile(std::vector<double>(19, 1.0)).has_value());

  std::vector<double> values;
  for (int i = 1; i <= 20; ++i) values.push_back(i);
  auto tail = ComputeTailPercentile(values);
  EXPECT(tail.has_value() && tail->percentile == 50.0 && tail->value == 10.0 &&
         tail->samples == 20);

  values.clear();
  for (int i = 1000; i >= 1; --i) values.push_back(i);  // Unsorted input.
  tail = ComputeTailPercentile(values);
  EXPECT(tail.has_value() && tail->percentile == 99.0 &&
         tail->value == 990.0 && tail->samples == 1000);

  values.push_back(1001);  // 1001 samples: p99.9 still has only 1 beyond.
  tail = ComputeTailPercentile(values);
  EXPECT(tail.has_value() && tail->percentile == 99.0);

  values.assign(10000, 0.0);
  tail = ComputeTailPercentile(values);
  EXPECT(tail.has_value() && tail->percentile == 99.9);

  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

Span MakeSpan(uint64_t id, uint64_t parent, const char* name, double start,
              double end) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = name;
  span.start = start;
  span.end = end;
  return span;
}

void TestSelfTimes() {
  // root [0, 10] with children a [1, 4] and b [3, 6] (overlapping: the
  // union covers 5 s) plus c [8, 12], clipped to the root at 10.
  // a has a child d [2, 3].
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "root", 0.0, 10.0), MakeSpan(2, 1, "a", 1.0, 4.0),
      MakeSpan(3, 1, "b", 3.0, 6.0),     MakeSpan(4, 1, "c", 8.0, 12.0),
      MakeSpan(5, 2, "d", 2.0, 3.0),     MakeSpan(6, 0, "a", 20.0, 21.5)};
  std::map<std::string, size_t> counts;
  const std::map<std::string, double> self = SelfTimes(spans, &counts);
  EXPECT(Near(self.at("root"), 10.0 - 5.0 - 2.0));
  EXPECT(Near(self.at("a"), (3.0 - 1.0) + 1.5));  // Summed by name.
  EXPECT(Near(self.at("b"), 3.0));
  EXPECT(Near(self.at("c"), 4.0));
  EXPECT(Near(self.at("d"), 1.0));
  EXPECT(counts.at("a") == 2 && counts.at("root") == 1);

  // The tracer nests spans per thread and inherits the request id.
  Tracer tracer(true);
  {
    ScopedSpan outer(tracer, "outer", 7);
    ScopedSpan inner(tracer, "inner");
  }
  const std::vector<Span> recorded = tracer.spans();
  EXPECT(recorded.size() == 2);
  EXPECT(recorded[1].parent == recorded[0].id && recorded[1].request == 7);
  EXPECT(recorded[1].end <= recorded[0].end);

  Tracer disabled(false);
  { ScopedSpan span(disabled, "ignored"); }
  EXPECT(disabled.spans().empty());
}

void TestMetricNames() {
  EXPECT(IsValidMetricName("setup_s"));
  EXPECT(IsValidMetricName("aut.tdv_s.t1"));
  EXPECT(IsValidMetricName("9lives-x"));
  EXPECT(!IsValidMetricName(""));
  EXPECT(!IsValidMetricName(".hidden"));
  EXPECT(!IsValidMetricName("has space"));
  EXPECT(!IsValidMetricName("slash/name"));
  EXPECT(!IsValidMetricName(std::string(65, 'a')));
  EXPECT(IsValidMetricName(std::string(64, 'a')));
  EXPECT(IsValidMetricUnit("1/s") && IsValidMetricUnit("%") &&
         IsValidMetricUnit("MiB"));
  EXPECT(!IsValidMetricUnit("") && !IsValidMetricUnit("m s") &&
         !IsValidMetricUnit(std::string(17, 's')));

  RunResult result;
  result.Set("latency_ms", 1.25, "ms");
  result.Count(Status::Ok());
  Result<std::string> line = RenderResultLine(result);
  EXPECT(line.ok() &&
         *line == "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
                  "\"metrics\": {\"latency_ms\": {\"value\": 1.25, "
                  "\"unit\": \"ms\"}}}");
  result.Set("bad name", 1.0, "s");
  EXPECT(!RenderResultLine(result).ok());

  RunResult failing;
  failing.Count(Status::Internal("boom"));
  line = RenderResultLine(failing);
  EXPECT(line.ok() && line->find("\"correct\": false") != std::string::npos &&
         line->find("\"failed\": 1") != std::string::npos);
}

void TestHostSpeed() {
  // The reference kernel is fixed work: the same result on every run.
  EXPECT(RunReferenceKernel() == RunReferenceKernel());

  HostSpeed host;
  EXPECT(host.Scale() == 1.0);  // No samples: no scaling.
  const double first = host.Sample();
  host.Sample();
  host.Sample();
  EXPECT(first > 0.0 && host.MedianSeconds() > 0.0);
  // Scaling the kernel's own median gives the reference time.
  EXPECT(std::fabs(host.MedianSeconds() * host.Scale() -
                   kReferenceKernelSeconds) < 1e-12);

  const double cpu = ProcessCpuSeconds();
  EXPECT(RunReferenceKernel() != 0);
  EXPECT(ProcessCpuSeconds() > cpu && ThreadCpuSeconds() > 0.0);
}

void TestOracles(const std::string& dir) {
  // A small release: an ER graph anonymized to k=3.
  Rng rng(5);
  const Graph input = ErdosRenyiGnm(60, 90, rng);
  AnonymizationOptions options;
  options.k = 3;
  options.use_total_degree_partition = true;
  const Result<AnonymizationResult> anonymized = Anonymize(input, options);
  EXPECT(anonymized.ok());
  const std::string release = dir + "/release.ksymcsr";
  EXPECT(WriteReleaseCsrFile(MakeReleaseTriple(*anonymized), release).ok());

  // Release oracle: the intact release passes; a flipped byte anywhere
  // (header, offsets, neighbors, labels) fails it.
  EXPECT(CheckBinaryRelease(input, release, 3).ok());
  EXPECT(!CheckBinaryRelease(input, release, 1000).ok());
  const uint64_t bytes = FileBytes(release).value();
  for (const size_t offset : {size_t{12}, size_t{70}, size_t(bytes / 2),
                              size_t(bytes - 3)}) {
    const std::string copy = dir + "/tampered.ksymcsr";
    std::filesystem::copy_file(
        release, copy, std::filesystem::copy_options::overwrite_existing);
    FlipByte(copy, offset);
    EXPECT(!CheckBinaryRelease(input, copy, 3).ok());

    // Byte-identity oracle (sharded merge, traced pipeline).
    const Result<bool> same = FilesEqual(release, copy);
    EXPECT(same.ok() && !*same);
  }
  const Result<bool> self = FilesEqual(release, release);
  EXPECT(self.ok() && *self);
  EXPECT(!FilesEqual(release, dir + "/missing").ok());

  // Attack-report oracle on a real RunAttack report.
  const std::string graph_path = dir + "/input.ksymcsr";
  EXPECT(WriteCsrFile(input, {}, graph_path).ok());
  serve::AttackRequest attack;
  attack.input = graph_path;
  attack.k = 3;
  const Result<serve::Response> response = serve::RunAttack(attack);
  EXPECT(response.ok());
  const std::string report = response->report;
  EXPECT(CheckAttackReport(report, 3).ok());
  EXPECT(!CheckAttackReport(report, 100).ok());
  // Flip one digit of each stated floor down to '1' (below k=3).
  for (const std::string key :
       {"(min orbit ", "target candidate sets: min "}) {
    std::string tampered = report;
    const size_t at = tampered.rfind(key) + key.size();
    tampered[at] = '1';
    if (tampered[at + 1] >= '0' && tampered[at + 1] <= '9') {
      tampered.erase(at + 1, 1);
      while (tampered[at + 1] >= '0' && tampered[at + 1] <= '9') {
        tampered.erase(at + 1, 1);
      }
    }
    EXPECT(!CheckAttackReport(tampered, 3).ok());
  }
  // A passive-table row whose min|C| drops below k.
  std::string tampered = report;
  const size_t table = tampered.find("passive attacks");
  const size_t row = tampered.find('\n', tampered.find('\n', table) + 1) + 1;
  size_t field = row;
  for (int i = 0; i < 2; ++i) {  // Skip the name and cells columns.
    field = tampered.find_first_not_of(' ', field);
    field = tampered.find(' ', field);
  }
  field = tampered.find_first_not_of(' ', field);
  const size_t field_end = tampered.find(' ', field);
  tampered.replace(field, field_end - field, "1");
  EXPECT(!CheckAttackReport(tampered, 3).ok());

  EXPECT(ParseUintAfter("+12 vertices, +345 edges", "vertices, +").value() ==
         345);
  EXPECT(!ParseUintAfter("no numbers", "vertices, +").ok());
}

void TestKSymmetricOracle() {
  // An exact-orbit release is k-symmetric; dropping one edge breaks it.
  Rng rng(7);
  const Graph input = ErdosRenyiGnm(40, 60, rng);
  AnonymizationOptions options;
  options.k = 3;
  const Result<AnonymizationResult> anonymized = Anonymize(input, options);
  EXPECT(anonymized.ok());
  const Graph& release = anonymized->graph;
  EXPECT(CheckKSymmetric(release, 3).ok());
  GraphBuilder tampered(release.NumVertices());
  bool dropped = false;
  release.ForEachEdge([&](VertexId u, VertexId v) {
    if (dropped) tampered.AddEdge(u, v);
    dropped = true;
  });
  EXPECT(!CheckKSymmetric(tampered.Build(), 3).ok());
}

void TestServeOracles(const std::string& dir) {
  Rng rng(9);
  const Graph base = ErdosRenyiGnm(50, 80, rng);
  const std::string path = dir + "/session.ksymcsr";
  EXPECT(WriteCsrFile(base, {}, path).ok());

  // Partition-checksum oracle on a real reanonymize report: a session on
  // `base` with one edge added.
  VertexId u = 0;
  VertexId v = 1;
  while (base.HasEdge(u, v)) ++v;
  serve::DynamicState state(size_t{1} << 20);
  serve::MutateRequest create;
  create.session = "s";
  create.input = path;
  EXPECT(serve::RunMutate(create, &state).ok());
  serve::MutateRequest mutate;
  mutate.session = "s";
  mutate.edits = "add " + std::to_string(u) + " " + std::to_string(v);
  EXPECT(serve::RunMutate(mutate, &state).ok());
  serve::CommitRequest commit;
  commit.session = "s";
  EXPECT(serve::RunCommit(commit, &state).ok());
  serve::ReanonymizeRequest reanonymize;
  reanonymize.session = "s";
  reanonymize.k = 3;
  const Result<serve::Response> epoch =
      serve::RunReanonymize(reanonymize, &state);
  EXPECT(epoch.ok());
  GraphBuilder builder(base.NumVertices());
  base.ForEachEdge([&](VertexId a, VertexId b) { builder.AddEdge(a, b); });
  builder.AddEdge(u, v);
  const Graph edited = builder.Build();
  EXPECT(CheckPartitionChecksum(epoch->report, edited).ok());
  EXPECT(!CheckPartitionChecksum("no checksum here", edited).ok());
  const std::string key = "partition checksum: ";
  for (const size_t digit : {size_t{0}, size_t{15}}) {
    std::string tampered = epoch->report;
    char& c = tampered[tampered.find(key) + key.size() + digit];
    c = c == '0' ? '1' : '0';
    EXPECT(!CheckPartitionChecksum(tampered, edited).ok());
  }

  // Reply-report oracle: a repeat of the one-shot request matches; one
  // flipped character anywhere does not.
  serve::AuditRequest audit;
  audit.input = path;
  audit.k = 3;
  audit.tdv = true;
  const Result<serve::Response> expected = serve::RunAudit(audit);
  const Result<serve::Response> repeat = serve::RunAudit(audit);
  EXPECT(expected.ok() && repeat.ok());
  const std::string& report = expected->report;
  EXPECT(CheckReplyReport(repeat->report, report).ok());
  for (const size_t offset :
       {size_t{0}, report.size() / 2, report.size() - 1}) {
    std::string tampered = report;
    tampered[offset] = static_cast<char>(tampered[offset] ^ 0x01);
    EXPECT(!CheckReplyReport(tampered, report).ok());
  }
  EXPECT(!CheckReplyReport(report + "\n", report).ok());
}

}  // namespace

int main() {
  const std::string dir = "perfbench_test_tmp";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  TestTailPercentile();
  TestSelfTimes();
  TestMetricNames();
  TestHostSpeed();
  TestOracles(dir);
  TestKSymmetricOracle();
  TestServeOracles(dir);
  std::filesystem::remove_all(dir);
  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
