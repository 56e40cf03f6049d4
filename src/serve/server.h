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
// Scheduling: a bounded FIFO queue feeds `thread_budget` workers. A request
// whose arrival finds the queue full is rejected immediately with "busy" —
// the daemon never blocks a client on another client's work. Each request's
// ExecutionContext is clamped to the global thread budget, and workers
// acquire that many tokens before executing, so total compute threads never
// exceed the budget. A "deadline_ms" that expires while queued yields an
// error at dequeue time instead of a late execution.
//
// Batching: a worker that dequeues a sample request drains every other
// sample request waiting in the queue and executes them as one
// RunSampleBatch. Sample i of a request depends only on Rng(seed).Fork(i)
// (schedule independence), so batched responses are bit-identical to solo
// runs — batching changes latency, never bytes.
//
// "stats" is answered inline on the connection thread — it can always be
// served, even (especially) when the queue is rejecting work.

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
#include <utility>
#include <vector>

#include "common/status.h"
#include "serve/api.h"
#include "serve/cache.h"
#include "serve/dynamic.h"

namespace ksym {
namespace serve {

struct ServerOptions {
  std::string socket_path;

  /// Graph-cache LRU cap (serve/cache.h).
  size_t cache_bytes = size_t{1} << 30;

  /// Plan-cache LRU cap (dyn/plan_cache.h) for the dynamic-graph ops.
  size_t plan_cache_bytes = size_t{256} << 20;

  /// Global compute-thread budget; also the worker count. Each request's
  /// `threads` is clamped to this.
  uint32_t thread_budget = 4;

  /// Bounded-queue depth; arrivals past it are rejected with "busy".
  size_t max_queue = 16;

  /// Hint returned with "busy" rejections.
  uint32_t retry_after_ms = 100;

  /// Start with the workers parked until Resume() — lets tests enqueue a
  /// full batch and observe one deterministic drain.
  bool start_paused = false;
};

struct ServerStats {
  uint64_t accepted = 0;         // Jobs admitted to the queue.
  uint64_t rejected_busy = 0;    // Arrivals bounced off the full queue.
  uint64_t completed = 0;        // Jobs finished with an ok response.
  uint64_t failed = 0;           // Jobs finished with an error response.
  uint64_t deadline_expired = 0;  // Jobs whose deadline passed while queued.
  uint64_t parse_errors = 0;     // Lines that failed wire/request decoding.
  uint64_t batches = 0;          // Sample batches executed.
  uint64_t batched_requests = 0;  // Sample requests inside those batches.
  uint64_t connections = 0;      // Connections accepted over the lifetime.
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

  /// Executes one dequeued job (or a sample batch seeded by it) and returns
  /// the jobs paired with their rendered responses. Called with no locks
  /// held. Responses are fulfilled by the caller only after every counter
  /// (completed/failed, phase timers, budget tokens) has been updated, so a
  /// stats request issued after observing a response always reflects it.
  std::vector<std::pair<std::unique_ptr<Job>, WireObject>> Execute(
      std::vector<std::unique_ptr<Job>> jobs);

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
