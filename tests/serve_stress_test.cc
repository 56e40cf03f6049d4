// Concurrent-client stress harness for the ksym_serve daemon core, with
// fault injection: many client threads hammer one in-process Server with a
// mix of valid work, garbage frames, truncated lines, and abrupt
// disconnects (before and after writing). The server must never crash,
// hang, or wedge — after the storm it still answers, and its counters
// reconcile: every accepted job was answered exactly once. A soak of 10^4
// connect/close cycles checks that finished connections give back their
// threads, descriptors and thread stacks while the server runs, and
// clients that hold kMaxConnections open cannot make it spawn more.
//
// Deterministic per-thread xorshift streams drive the fault mix, so a
// failure replays. The whole file is TSan-clean by construction (CI runs it
// under ThreadSanitizer).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "graph/generators.h"
#include "graph/io.h"
#include "serve/api.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "serve_test_util.h"

namespace ksym {
namespace serve {
namespace {

using serve_test::TempPath;
using serve_test::TestClient;

constexpr int kThreads = 8;
constexpr int kIterations = 30;

struct Tally {
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t error = 0;
  uint64_t dropped = 0;  // Connection died before a response line arrived.
};

uint64_t Next(uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

std::string WriteStressCsr() {
  const std::string path = TempPath("stress.ksymcsr");
  const Graph graph = MakePetersen();
  std::vector<uint64_t> labels(graph.NumVertices());
  for (size_t i = 0; i < labels.size(); ++i) labels[i] = i;
  const Status status = WriteCsrFile(graph, labels, path);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return path;
}

/// One client thread's storm: each iteration opens a fresh connection and
/// rolls one of six behaviors.
void ClientStorm(const std::string& socket_path, const std::string& input,
                 uint64_t seed, Tally& tally) {
  uint64_t state = seed;
  const std::string audit_line =
      "{\"op\":\"audit\",\"input\":\"" + input + "\",\"k\":3}";
  for (int iter = 0; iter < kIterations; ++iter) {
    TestClient client(socket_path);
    if (!client.connected()) {
      // Accept backlog pressure; counts as dropped work, not a failure.
      ++tally.dropped;
      continue;
    }
    switch (Next(state) % 6) {
      case 0: {  // Valid audit.
        const std::string line = client.RoundTrip(audit_line);
        const auto parsed = ParseWireLine(line);
        if (!parsed.ok()) {
          ++tally.dropped;
        } else if (parsed->GetString("status") == "ok") {
          ++tally.ok;
        } else if (parsed->GetString("status") == "busy") {
          ++tally.busy;
        } else {
          ++tally.error;
        }
        break;
      }
      case 1: {  // Stats (always answered inline).
        const auto parsed = ParseWireLine(client.RoundTrip("{\"op\":\"stats\"}"));
        if (parsed.ok() && parsed->GetString("status") == "ok") {
          ++tally.ok;
        } else {
          ++tally.dropped;
        }
        break;
      }
      case 2: {  // Garbage frame: must answer an error, not die.
        std::string junk;
        const size_t len = Next(state) % 48;
        for (size_t i = 0; i < len; ++i) {
          char c = static_cast<char>(Next(state) % 256);
          if (c == '\n') c = '?';
          junk.push_back(c);
        }
        const auto parsed = ParseWireLine(client.RoundTrip(junk + "!"));
        if (parsed.ok()) {
          ++tally.error;  // Overwhelmingly "error"; "ok" can't parse junk.
        } else {
          ++tally.dropped;
        }
        break;
      }
      case 3:  // Truncated frame: bytes, no newline, then disconnect.
        client.SendRaw("{\"op\":\"audit\",\"inp");
        client.Close();
        ++tally.dropped;
        break;
      case 4:  // Write a full request, vanish without reading the response.
        client.SendRaw(audit_line + "\n");
        client.Close();
        ++tally.dropped;
        break;
      default:  // Connect and immediately hang up.
        client.Close();
        ++tally.dropped;
        break;
    }
  }
}

TEST(ServeStressTest, ConcurrentClientsWithFaultInjectionStayHealthy) {
  const std::string input = WriteStressCsr();

  ServerOptions options;
  options.socket_path = TempPath("stress.sock");
  options.thread_budget = 2;
  options.max_queue = 4;  // Small enough that busy rejections really happen.
  options.retry_after_ms = 1;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  std::vector<Tally> tallies(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back(ClientStorm, options.socket_path, input,
                         uint64_t{0xabcdef12345678ull} + t, std::ref(tallies[t]));
  }
  for (std::thread& thread : clients) thread.join();

  Tally total;
  for (const Tally& tally : tallies) {
    total.ok += tally.ok;
    total.busy += tally.busy;
    total.error += tally.error;
    total.dropped += tally.dropped;
  }
  EXPECT_EQ(total.ok + total.busy + total.error + total.dropped,
            uint64_t{kThreads} * kIterations);
  EXPECT_GT(total.ok, 0u);  // Some real work got through the storm.

  // The server is still alive and coherent: a fresh connection gets a
  // correct answer byte-identical to the direct API call.
  AuditRequest request;
  request.input = input;
  request.k = 3;
  const auto direct = RunAudit(request, nullptr);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  TestClient survivor(options.socket_path);
  ASSERT_TRUE(survivor.connected());
  const auto response = ParseWireLine(survivor.RoundTrip(
      "{\"op\":\"audit\",\"input\":\"" + input + "\",\"k\":3}"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->GetString("status"), "ok");
  EXPECT_EQ(response->GetString("report"), direct->report);

  // The dynamic ops also still work post-storm, and the stats report
  // carries the uniform cache counters (greppable ^graph_cache_ /
  // ^plan_cache_ prefixes, same keys as the ksym_dynamic stderr log).
  TestClient dynamic_client(options.socket_path);
  ASSERT_TRUE(dynamic_client.connected());
  auto mutated = ParseWireLine(dynamic_client.RoundTrip(
      "{\"op\":\"mutate\",\"session\":\"storm\",\"input\":\"" + input +
      "\",\"edits\":\"add 0 2\"}"));
  ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();
  EXPECT_EQ(mutated->GetString("status"), "ok");
  auto committed = ParseWireLine(dynamic_client.RoundTrip(
      "{\"op\":\"commit\",\"session\":\"storm\"}"));
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed->GetString("status"), "ok");
  auto reanonymized = ParseWireLine(dynamic_client.RoundTrip(
      "{\"op\":\"reanonymize\",\"session\":\"storm\",\"k\":2}"));
  ASSERT_TRUE(reanonymized.ok());
  EXPECT_EQ(reanonymized->GetString("status"), "ok");
  auto stats_line = ParseWireLine(dynamic_client.RoundTrip("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats_line.ok());
  const std::string stats_report = stats_line->GetString("report");
  for (const char* key :
       {"graph_cache_hits: ", "graph_cache_entries: ", "plan_cache_hits: ",
        "plan_cache_misses: ", "plan_cache_entries: 2",
        "dynamic_sessions: 1", "phase_reanonymize_seconds: "}) {
    EXPECT_NE(stats_report.find(key), std::string::npos) << key;
  }

  // Counter reconciliation after Stop() has drained the queue and joined
  // the workers (fire-and-forget jobs may still be in flight until then):
  // every admitted job was answered exactly once, nothing leaked in the
  // queue, and the thread budget was fully returned.
  server.Stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed + stats.failed, stats.accepted);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.running_threads, 0u);
  // The survivor audit above definitely completed.
  EXPECT_GE(stats.completed, 1u);
}

/// Number of entries in a /proc/self directory (threads or open fds).
size_t CountEntries(const char* dir) {
  size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++count;
  }
  return count;
}

/// CountEntries("/proc/self/task") once it holds steady: five equal reads
/// 20 ms apart, or whatever it reads after 10 s. pthread_join returns
/// before the kernel unlists the joined task, so a thread an earlier test
/// joined can still be counted for a moment.
size_t SteadyTaskCount() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  size_t count = CountEntries("/proc/self/task");
  int equal_reads = 1;
  while (equal_reads < 5 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const size_t next = CountEntries("/proc/self/task");
    equal_reads = next == count ? equal_reads + 1 : 1;
    count = next;
  }
  return count;
}

/// Number of memory mappings; a thread that exits without being joined
/// keeps its stack mapped.
size_t CountMappings() {
  std::ifstream maps("/proc/self/maps");
  size_t count = 0;
  for (std::string line; std::getline(maps, line);) ++count;
  return count;
}

TEST(ServeStressTest, ConnectCloseSoakKeepsThreadsAndFdsFlat) {
  ServerOptions options;
  options.socket_path = TempPath("soak.sock");
  options.thread_budget = 2;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  const size_t tasks_before = SteadyTaskCount();
  const size_t fds_before = CountEntries("/proc/self/fd");
  const size_t mappings_before = CountMappings();

  constexpr int kCycles = 10000;
  int connected = 0;
  for (int i = 0; i < kCycles; ++i) {
    TestClient client(options.socket_path);
    if (client.connected()) ++connected;
  }
  EXPECT_EQ(connected, kCycles);

  // Every connection thread exits on EOF, and the accept loop joins it
  // within one poll interval; give the tail a few seconds to drain.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         (CountEntries("/proc/self/task") > tasks_before ||
          CountEntries("/proc/self/fd") > fds_before)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // One more poll interval, so the last connection threads are joined too.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(CountEntries("/proc/self/task"), tasks_before);
  EXPECT_EQ(CountEntries("/proc/self/fd"), fds_before);
  // Unjoined threads would keep 10^4 stacks (two mappings each) mapped;
  // joined ones leave at most the allocator's cached stacks and arenas.
  EXPECT_LT(CountMappings(), mappings_before + 1000);

  // Still serving, and every connection was counted.
  TestClient survivor(options.socket_path);
  ASSERT_TRUE(survivor.connected());
  const auto stats_line =
      ParseWireLine(survivor.RoundTrip("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats_line.ok()) << stats_line.status().ToString();
  EXPECT_EQ(stats_line->GetString("status"), "ok");
  server.Stop();
  EXPECT_EQ(server.stats().connections, uint64_t{kCycles} + 1);
}

TEST(ServeStressTest, ConnectionCapAnswersBusyWithoutAThread) {
  ServerOptions options;
  options.socket_path = TempPath("cap.sock");
  options.thread_budget = 1;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  const size_t tasks_before = CountEntries("/proc/self/task");

  // Hold the cap: every held connection is served (it has its thread).
  std::vector<std::unique_ptr<TestClient>> held;
  for (size_t i = 0; i < kMaxConnections; ++i) {
    held.push_back(std::make_unique<TestClient>(options.socket_path));
    ASSERT_TRUE(held.back()->connected());
    const auto reply =
        ParseWireLine(held.back()->RoundTrip("{\"op\":\"stats\"}"));
    ASSERT_TRUE(reply.ok()) << "held connection " << i;
    ASSERT_EQ(reply->GetString("status"), "ok") << "held connection " << i;
  }

  // One past the cap: one busy line, then EOF (a served connection would
  // send nothing, so the read times out instead of hanging).
  TestClient extra(options.socket_path);
  ASSERT_TRUE(extra.connected());
  extra.SetRecvTimeout(5000);
  const auto busy = ParseWireLine(extra.RecvLine());
  ASSERT_TRUE(busy.ok()) << busy.status().ToString();
  EXPECT_EQ(busy->GetString("status"), "busy");
  EXPECT_EQ(busy->GetUint("retry_after_ms"), options.retry_after_ms);
  EXPECT_EQ(extra.RecvLine(), "");
  EXPECT_LE(CountEntries("/proc/self/task"), tasks_before + kMaxConnections);
  EXPECT_EQ(server.stats().rejected_connections, 1u);

  // Once a held connection closes, its slot serves a new client. The
  // slot frees when that connection's thread has seen EOF, so a retry may
  // still meet the cap.
  held.front()->Close();
  bool served = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!served && std::chrono::steady_clock::now() < deadline) {
    TestClient next(options.socket_path);
    const auto reply = ParseWireLine(next.RoundTrip("{\"op\":\"stats\"}"));
    if (reply.ok() && reply->GetString("status") == "ok") {
      served = true;
      EXPECT_NE(reply->GetString("report").find("rejected_connections: "),
                std::string::npos);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(served);
  held.clear();
  server.Stop();
  EXPECT_GE(server.stats().rejected_connections, 1u);
}

}  // namespace
}  // namespace serve
}  // namespace ksym
