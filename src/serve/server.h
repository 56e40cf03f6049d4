// The ksym_serve daemon core: a unix-domain-socket server executing the
// serve/api.h request set against one shared GraphCache (DESIGN.md §12).
//
// Protocol: newline-delimited wire objects (serve/wire.h), one request per
// line, one response line per request, written in request order per
// connection. Requests carry an "op" ("anonymize", "audit", "sample",
// "attack", "mutate", "commit", "reanonymize", "stats", "sleep") plus that
// op's fields; optionally an "id" (echoed verbatim) and a "deadline_ms"
// (relative admission deadline). Responses:
//
//   {"status":"ok","report":"...","log":"..."}
//   {"status":"error","error":"InvalidArgument: ..."}
//   {"status":"busy","retry_after_ms":100,"error":"..."}   (429 analogue)
//
// Scheduling: a bounded FIFO queue feeds `thread_budget` workers, and each
// worker executes one dequeued request at a time. A request whose arrival
// finds the queue full is rejected immediately with "busy" — the daemon
// never blocks a client on another client's work. Only "sample" and
// "attack" run a parallel loop: their `threads` is clamped to the global
// thread budget, and the worker acquires that many tokens before
// executing. Every other op runs on one thread and takes one token (the
// `threads` key that "anonymize", "audit" and "reanonymize" accept is
// type-checked and ignored). So total compute threads never exceed the
// budget. A "deadline_ms" (an integer in [0, 4294967295]) that expires
// while queued yields an error at dequeue time instead of a late
// execution.
//
// "stats" is answered inline on the connection thread — it can always be
// served, even (especially) when the queue is rejecting work.
//
// Connections: each live connection holds one thread. A connection that
// arrives while kMaxConnections are live gets one "busy" line and is
// closed without a thread, so clients that connect and never close cannot
// pin an unbounded number of threads.

#ifndef KSYM_SERVE_SERVER_H_
#define KSYM_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serve/api.h"
#include "serve/cache.h"
#include "serve/dynamic.h"

namespace ksym {
namespace serve {

/// Live connections (one thread each) the daemon serves at once; an
/// arrival past it is answered "busy" and closed.
inline constexpr size_t kMaxConnections = 128;

struct ServerOptions {
  std::string socket_path;

  /// Graph-cache LRU cap (serve/cache.h).
  size_t cache_bytes = size_t{1} << 30;

  /// Global compute-thread budget; also the worker count. A sample's or
  /// attack's `threads` is clamped to this.
  uint32_t thread_budget = 4;

  /// Bounded-queue depth; arrivals past it are rejected with "busy".
  size_t max_queue = 16;

  /// Hint returned with "busy" rejections.
  uint32_t retry_after_ms = 100;

  /// Start with the workers parked until Resume() — lets tests fill the
  /// queue deterministically before any request runs.
  bool start_paused = false;
};

struct ServerStats {
  uint64_t accepted = 0;         // Jobs admitted to the queue.
  uint64_t rejected_busy = 0;    // Arrivals bounced off the full queue.
  uint64_t completed = 0;        // Jobs finished with an ok response.
  uint64_t failed = 0;           // Jobs finished with an error response.
  uint64_t deadline_expired = 0;  // Jobs whose deadline passed while queued.
  uint64_t parse_errors = 0;     // Lines that failed wire/request decoding.
  // Always 0: the daemon no longer batches requests. Kept only because
  // perfbench/workloads.cc reads both fields; they go with the next
  // benchmark change.
  uint64_t batches = 0;
  uint64_t batched_requests = 0;
  uint64_t connections = 0;      // Connections accepted over the lifetime.
  uint64_t rejected_connections = 0;  // Of those, closed at kMaxConnections.
  size_t queue_depth = 0;        // Live.
  size_t running_threads = 0;    // Live tokens held against the budget.
  double anonymize_seconds = 0.0;  // Per-phase execution timers.
  double audit_seconds = 0.0;
  double sample_seconds = 0.0;
  double attack_seconds = 0.0;
  double mutate_seconds = 0.0;
  double commit_seconds = 0.0;
  double reanonymize_seconds = 0.0;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket, spawns the accept loop and the workers. Fails if the
  /// path is unusable (too long, bind error).
  Status Start();

  /// Unparks workers started with `start_paused`.
  void Resume();

  /// Drains in-flight work and tears everything down. Idempotent; also run
  /// by the destructor.
  void Stop();

  ServerStats stats() const;
  GraphCache& cache() { return *cache_; }
  DynamicState& dynamic_state() { return *dynamic_; }
  const ServerOptions& options() const { return options_; }

 private:
  struct Job;

  /// One accepted connection. Its thread sets `fd` to -1 under conn_mu_
  /// just before closing the descriptor, so Stop() never shuts down an fd
  /// number the process may have reused, and AcceptLoop joins the threads
  /// whose connection is gone.
  struct Connection {
    Connection() = default;
    Connection(const Connection&) = delete;  // Its thread holds its address.
    Connection& operator=(const Connection&) = delete;

    int fd = -1;
    std::thread thread;
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  void WorkerLoop();

  /// Joins every connection thread that has closed its descriptor.
  void ReapConnections();

  /// Executes one dequeued job and returns its rendered response. Called
  /// with no locks held. The caller fulfils the response only after every
  /// counter (completed/failed, phase timers, budget tokens) has been
  /// updated, so a stats request issued after observing a response always
  /// reflects it.
  WireObject Execute(Job& job);

  /// Handles one request line, blocking until its response is ready.
  std::string HandleLine(const std::string& line);

  /// Renders the stats report (the "stats" op's deterministic-shape body).
  std::string StatsReport() const;

  ServerOptions options_;
  std::unique_ptr<GraphCache> cache_;
  std::unique_ptr<DynamicState> dynamic_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;   // Workers: queue non-empty or stop.
  std::condition_variable budget_cv_;  // Workers: budget tokens freed.
  std::deque<std::unique_ptr<Job>> queue_;
  bool stopping_ = false;
  bool paused_ = false;
  ServerStats stats_;

  std::mutex conn_mu_;
  std::list<Connection> conns_;  // Stable addresses: threads hold pointers.
};

}  // namespace serve
}  // namespace ksym

#endif  // KSYM_SERVE_SERVER_H_
