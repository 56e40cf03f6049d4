#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <future>
#include <utility>

#include "common/str.h"
#include "common/timer.h"
#include "serve/wire.h"
#include "simd/simd.h"

namespace ksym {
namespace serve {
namespace {

using SteadyClock = std::chrono::steady_clock;

/// Writes the whole buffer, ignoring failures: a client killed mid-request
/// must not take the connection thread (or the process — MSG_NOSIGNAL)
/// down with it.
void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

WireObject OkResponse(const Response& response) {
  WireObject object;
  object.Set("status", WireValue::String("ok"));
  object.Set("report", WireValue::String(response.report));
  object.Set("log", WireValue::String(response.log));
  return object;
}

WireObject ErrorResponse(const Status& status) {
  WireObject object;
  object.Set("status", WireValue::String("error"));
  object.Set("error", WireValue::String(status.ToString()));
  return object;
}

}  // namespace

struct Server::Job {
  enum class Kind {
    kAnonymize,
    kAudit,
    kSample,
    kAttack,
    kMutate,
    kCommit,
    kReanonymize,
    kSleep
  };

  Kind kind = Kind::kSleep;
  AnonymizeRequest anonymize;
  AuditRequest audit;
  SampleRequest sample;
  AttackRequest attack;
  MutateRequest mutate;
  CommitRequest commit;
  ReanonymizeRequest reanonymize;
  uint64_t sleep_ms = 0;

  bool has_deadline = false;
  SteadyClock::time_point deadline{};

  /// Budget tokens this job's execution occupies (its clamped threads).
  uint32_t cost = 1;

  std::promise<WireObject> promise;
};

Server::Server(const ServerOptions& options) : options_(options) {
  if (options_.thread_budget == 0) options_.thread_budget = 1;
  if (options_.max_queue == 0) options_.max_queue = 1;
  cache_ = std::make_unique<GraphCache>(options_.cache_bytes);
  dynamic_ = std::make_unique<DynamicState>(options_.plan_cache_bytes);
  paused_ = options_.start_paused;
}

Server::~Server() { Stop(); }

Status Server::Start() {
  sockaddr_un addr{};
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        StrFormat("unusable socket path \"%s\"", options_.socket_path.c_str()));
  }
  ::unlink(options_.socket_path.c_str());
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(StrFormat("socket: %s", std::strerror(errno)));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IoError(StrFormat("bind %s: %s",
                                     options_.socket_path.c_str(),
                                     std::strerror(errno)));
  }
  if (::listen(listen_fd_, 64) < 0) {
    return Status::IoError(StrFormat("listen: %s", std::strerror(errno)));
  }
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  workers_.reserve(options_.thread_budget);
  for (uint32_t i = 0; i < options_.thread_budget; ++i) {
    workers_.emplace_back(&Server::WorkerLoop, this);
  }
  return Status::Ok();
}

void Server::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    paused_ = false;
  }
  queue_cv_.notify_all();
  budget_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // Every queued job has been drained (workers only exit on an empty queue)
  // and new arrivals are refused, so no connection thread can be waiting on
  // a promise — unblock the ones parked in recv() and collect them. The
  // accept thread is gone, so conns_ no longer grows.
  std::list<Connection> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const Connection& conn : conns_) {
      if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
    }
    conns.swap(conns_);
  }
  for (Connection& conn : conns) conn.thread.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
}

void Server::AcceptLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    ReapConnections();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    {
      // The new thread can only clear conn.fd under conn_mu_, so it never
      // races this assignment of conn.thread.
      std::lock_guard<std::mutex> conn_lock(conn_mu_);
      Connection& conn = conns_.emplace_back();
      conn.fd = fd;
      conn.thread = std::thread(&Server::ServeConnection, this, &conn);
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.connections;
  }
}

void Server::ReapConnections() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->fd < 0) {
        finished.push_back(std::move(it->thread));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& thread : finished) thread.join();
}

void Server::ServeConnection(Connection* conn) {
  const int fd = conn->fd;
  std::string buffer;  // The pending (newline-less) line, then new bytes.
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF, reset, or shutdown — all mean "done".
    // Only the new bytes can hold a newline: each byte is scanned once.
    size_t scan = buffer.size();
    buffer.append(chunk, static_cast<size_t>(n));
    size_t line_start = 0;
    size_t pos;
    while ((pos = buffer.find('\n', scan)) != std::string::npos) {
      const std::string line = buffer.substr(line_start, pos - line_start);
      line_start = scan = pos + 1;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      SendAll(fd, HandleLine(line) + "\n");
    }
    buffer.erase(0, line_start);
    if (buffer.size() > kMaxRequestLineBytes) {
      // A client that never ends its line would grow this buffer without
      // bound: answer once, then drop the connection.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.parse_errors;
      }
      SendAll(fd, SerializeWireLine(ErrorResponse(Status::InvalidArgument(
                      StrFormat("request line exceeds %zu bytes without a "
                                "newline; closing the connection",
                                kMaxRequestLineBytes)))) +
                      "\n");
      break;
    }
  }
  // A partial frame at EOF (client died mid-write) is dropped: there is
  // nobody left to answer. Retire the fd before closing it, so Stop()
  // cannot shut down a reused descriptor number.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn->fd = -1;
  }
  ::close(fd);
}

std::string Server::HandleLine(const std::string& line) {
  bool has_id = false;
  WireValue id;

  const auto finish = [&](WireObject object) {
    if (has_id) {
      WireObject with_id;
      with_id.fields.emplace_back("id", id);
      for (auto& field : object.fields) {
        with_id.fields.push_back(std::move(field));
      }
      object = std::move(with_id);
    }
    return SerializeWireLine(object);
  };

  auto parsed = ParseWireLine(line);
  if (!parsed.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.parse_errors;
    return finish(ErrorResponse(parsed.status()));
  }
  const WireObject& request = parsed.value();
  if (const WireValue* value = request.Find("id")) {
    has_id = true;
    id = *value;
  }

  const std::string op = request.GetString("op");
  if (op == "stats") {
    Response stats_response;
    stats_response.report = StatsReport();
    return finish(OkResponse(stats_response));
  }

  auto job = std::make_unique<Job>();
  const auto clamp_threads = [&](uint32_t threads) {
    return std::clamp<uint32_t>(threads == 0 ? 1 : threads, 1,
                                options_.thread_budget);
  };
  if (op == "anonymize") {
    auto decoded = AnonymizeRequestFromWire(request);
    if (!decoded.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.parse_errors;
      return finish(ErrorResponse(decoded.status()));
    }
    job->kind = Job::Kind::kAnonymize;
    job->anonymize = std::move(decoded).value();
    job->anonymize.threads = clamp_threads(job->anonymize.threads);
    job->cost = job->anonymize.threads;
  } else if (op == "audit") {
    auto decoded = AuditRequestFromWire(request);
    if (!decoded.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.parse_errors;
      return finish(ErrorResponse(decoded.status()));
    }
    job->kind = Job::Kind::kAudit;
    job->audit = std::move(decoded).value();
    job->audit.threads = clamp_threads(job->audit.threads);
    job->cost = job->audit.threads;
  } else if (op == "sample") {
    auto decoded = SampleRequestFromWire(request);
    if (!decoded.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.parse_errors;
      return finish(ErrorResponse(decoded.status()));
    }
    job->kind = Job::Kind::kSample;
    job->sample = std::move(decoded).value();
    job->sample.threads = clamp_threads(job->sample.threads);
    job->cost = job->sample.threads;
  } else if (op == "attack") {
    auto decoded = AttackRequestFromWire(request);
    if (!decoded.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.parse_errors;
      return finish(ErrorResponse(decoded.status()));
    }
    job->kind = Job::Kind::kAttack;
    job->attack = std::move(decoded).value();
    job->attack.threads = clamp_threads(job->attack.threads);
    job->cost = job->attack.threads;
  } else if (op == "mutate") {
    auto decoded = MutateRequestFromWire(request);
    if (!decoded.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.parse_errors;
      return finish(ErrorResponse(decoded.status()));
    }
    job->kind = Job::Kind::kMutate;
    job->mutate = std::move(decoded).value();
    job->cost = 1;
  } else if (op == "commit") {
    auto decoded = CommitRequestFromWire(request);
    if (!decoded.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.parse_errors;
      return finish(ErrorResponse(decoded.status()));
    }
    job->kind = Job::Kind::kCommit;
    job->commit = std::move(decoded).value();
    job->cost = 1;
  } else if (op == "reanonymize") {
    auto decoded = ReanonymizeRequestFromWire(request);
    if (!decoded.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.parse_errors;
      return finish(ErrorResponse(decoded.status()));
    }
    job->kind = Job::Kind::kReanonymize;
    job->reanonymize = std::move(decoded).value();
    job->reanonymize.threads = clamp_threads(job->reanonymize.threads);
    job->cost = job->reanonymize.threads;
  } else if (op == "sleep") {
    job->kind = Job::Kind::kSleep;
    job->sleep_ms = request.GetUint("ms", 0);
    job->cost = 1;
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.parse_errors;
    return finish(ErrorResponse(Status::InvalidArgument(
        StrFormat("unknown op \"%s\"", op.c_str()))));
  }

  if (request.Has("deadline_ms")) {
    job->has_deadline = true;
    job->deadline = SteadyClock::now() +
                    std::chrono::milliseconds(request.GetUint("deadline_ms"));
  }

  std::future<WireObject> future = job->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return finish(
          ErrorResponse(Status::FailedPrecondition("server shutting down")));
    }
    if (queue_.size() >= options_.max_queue) {
      ++stats_.rejected_busy;
      WireObject busy;
      busy.Set("status", WireValue::String("busy"));
      busy.Set("retry_after_ms", WireValue::Uint(options_.retry_after_ms));
      busy.Set("error",
               WireValue::String(StrFormat(
                   "queue full (%zu jobs); retry later", queue_.size())));
      return finish(std::move(busy));
    }
    ++stats_.accepted;
    queue_.push_back(std::move(job));
    stats_.queue_depth = queue_.size();
  }
  queue_cv_.notify_one();
  return finish(future.get());
}

void Server::WorkerLoop() {
  for (;;) {
    std::vector<std::unique_ptr<Job>> jobs;
    uint32_t cost = 1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      jobs.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Batch: a sample job picks up every sample job behind it. Sample i
      // of request r depends only on Rng(seed_r).Fork(i), so the merge is
      // invisible in the responses (bit-identical to solo execution).
      if (jobs.front()->kind == Job::Kind::kSample) {
        for (auto it = queue_.begin(); it != queue_.end();) {
          if ((*it)->kind == Job::Kind::kSample) {
            jobs.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
      stats_.queue_depth = queue_.size();
      for (const auto& job : jobs) cost = std::max(cost, job->cost);
      budget_cv_.wait(lock, [&] {
        return stopping_ ||
               stats_.running_threads + cost <= options_.thread_budget;
      });
      stats_.running_threads += cost;
    }
    auto responses = Execute(std::move(jobs));
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.running_threads -= cost;
    }
    budget_cv_.notify_all();
    // Fulfill only now: every counter this work touched — including the
    // budget tokens above — is settled, so a client that sees its response
    // and immediately asks for stats gets a report that reflects it.
    for (auto& [job, response] : responses) {
      job->promise.set_value(std::move(response));
    }
  }
}

std::vector<std::pair<std::unique_ptr<Server::Job>, WireObject>>
Server::Execute(std::vector<std::unique_ptr<Job>> jobs) {
  std::vector<std::pair<std::unique_ptr<Job>, WireObject>> responses;
  responses.reserve(jobs.size());

  // Deadline gate: a job whose admission deadline passed while it sat in
  // the queue answers with an error instead of executing late.
  std::vector<std::unique_ptr<Job>> live;
  for (auto& job : jobs) {
    if (job->has_deadline && SteadyClock::now() > job->deadline) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.deadline_expired;
        ++stats_.failed;
      }
      responses.emplace_back(std::move(job),
                             ErrorResponse(Status::FailedPrecondition(
                                 "deadline expired while queued")));
      continue;
    }
    live.push_back(std::move(job));
  }
  if (live.empty()) return responses;

  const Job::Kind kind = live.front()->kind;
  Timer timer;
  if (kind == Job::Kind::kSample) {
    std::vector<SampleRequest> requests;
    uint32_t threads = 1;
    requests.reserve(live.size());
    for (const auto& job : live) {
      requests.push_back(job->sample);
      threads = std::max(threads, job->sample.threads);
    }
    std::vector<Result<Response>> results =
        RunSampleBatch(requests, cache_.get(), threads);
    uint64_t ok_count = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const Result<Response>& result : results) {
        if (result.ok()) ++ok_count;
      }
      stats_.completed += ok_count;
      stats_.failed += live.size() - ok_count;
      stats_.sample_seconds += timer.ElapsedSeconds();
      if (live.size() > 1) {
        ++stats_.batches;
        stats_.batched_requests += live.size();
      }
    }
    for (size_t i = 0; i < live.size(); ++i) {
      responses.emplace_back(std::move(live[i]),
                             results[i].ok()
                                 ? OkResponse(results[i].value())
                                 : ErrorResponse(results[i].status()));
    }
    return responses;
  }

  Job& job = *live.front();
  Result<Response> result = Status::Internal("unhandled op");
  double* phase_seconds = nullptr;
  switch (kind) {
    case Job::Kind::kAnonymize:
      result = RunAnonymize(job.anonymize, cache_.get());
      phase_seconds = &stats_.anonymize_seconds;
      break;
    case Job::Kind::kAudit:
      result = RunAudit(job.audit, cache_.get());
      phase_seconds = &stats_.audit_seconds;
      break;
    case Job::Kind::kAttack:
      result = RunAttack(job.attack, cache_.get());
      phase_seconds = &stats_.attack_seconds;
      break;
    case Job::Kind::kMutate:
      result = RunMutate(job.mutate, dynamic_.get(), cache_.get());
      phase_seconds = &stats_.mutate_seconds;
      break;
    case Job::Kind::kCommit:
      result = RunCommit(job.commit, dynamic_.get());
      phase_seconds = &stats_.commit_seconds;
      break;
    case Job::Kind::kReanonymize:
      result = RunReanonymize(job.reanonymize, dynamic_.get());
      phase_seconds = &stats_.reanonymize_seconds;
      break;
    case Job::Kind::kSleep: {
      std::this_thread::sleep_for(std::chrono::milliseconds(job.sleep_ms));
      Response response;
      response.report = StrFormat(
          "slept %llu ms\n", static_cast<unsigned long long>(job.sleep_ms));
      result = std::move(response);
      break;
    }
    case Job::Kind::kSample:
      break;  // Handled above.
  }
  const bool ok = result.ok();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ok) {
      ++stats_.completed;
    } else {
      ++stats_.failed;
    }
    if (phase_seconds != nullptr) *phase_seconds += timer.ElapsedSeconds();
  }
  responses.emplace_back(std::move(live.front()),
                         ok ? OkResponse(result.value())
                            : ErrorResponse(result.status()));
  return responses;
}

std::string Server::StatsReport() const {
  ServerStats snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = stats_;
    snapshot.queue_depth = queue_.size();
  }
  const CacheStats cache = cache_->stats();
  std::string report;
  const auto line = [&report](const char* key, uint64_t value) {
    report += StrFormat("%s: %llu\n", key,
                        static_cast<unsigned long long>(value));
  };
  line("accepted", snapshot.accepted);
  line("rejected_busy", snapshot.rejected_busy);
  line("completed", snapshot.completed);
  line("failed", snapshot.failed);
  line("deadline_expired", snapshot.deadline_expired);
  line("parse_errors", snapshot.parse_errors);
  line("batches", snapshot.batches);
  line("batched_requests", snapshot.batched_requests);
  line("connections", snapshot.connections);
  line("queue_depth", snapshot.queue_depth);
  line("running_threads", snapshot.running_threads);
  line("thread_budget", options_.thread_budget);
  // The two caches report the same counter set under uniform prefixes
  // (greppable: ^graph_cache_ / ^plan_cache_), so dashboards and the CI
  // smoke treat them interchangeably.
  line("graph_cache_hits", cache.hits);
  line("graph_cache_misses", cache.misses);
  line("graph_cache_evictions", cache.evictions);
  line("graph_cache_bypasses", cache.bypasses);
  line("graph_cache_resident_bytes", cache.resident_bytes);
  line("graph_cache_peak_resident_bytes", cache.peak_resident_bytes);
  line("graph_cache_entries", cache.entries);
  line("graph_cache_max_bytes", cache_->max_bytes());
  const dyn::PlanCacheStats plan = dynamic_->registry.plan_cache().stats();
  line("plan_cache_hits", plan.hits);
  line("plan_cache_misses", plan.misses);
  line("plan_cache_evictions", plan.evictions);
  line("plan_cache_resident_bytes", plan.resident_bytes);
  line("plan_cache_peak_resident_bytes", plan.peak_resident_bytes);
  line("plan_cache_entries", plan.entries);
  line("plan_cache_max_bytes", dynamic_->registry.plan_cache().max_bytes());
  line("dynamic_sessions", dynamic_->registry.num_sessions());
  // Which SIMD tier the daemon dispatched to, and how often each kernel
  // family has actually run — so a live instance's hot paths are auditable
  // without a debugger (DESIGN.md §13).
  const simd::SimdCallCounts simd_calls = simd::SimdCallCountsSnapshot();
  report += StrFormat("simd_level: %s\n",
                      simd::SimdLevelName(simd::ActiveSimdLevel()));
  line("simd_intersect_calls", simd_calls.intersect);
  line("simd_intersect_gallop_calls", simd_calls.intersect_gallop);
  line("simd_splitter_scalar_calls", simd_calls.splitter_scalar);
  line("simd_bfs_expand_calls", simd_calls.bfs_expand);
  report += StrFormat("phase_anonymize_seconds: %.3f\n",
                      snapshot.anonymize_seconds);
  report += StrFormat("phase_audit_seconds: %.3f\n", snapshot.audit_seconds);
  report += StrFormat("phase_sample_seconds: %.3f\n",
                      snapshot.sample_seconds);
  report += StrFormat("phase_attack_seconds: %.3f\n",
                      snapshot.attack_seconds);
  report += StrFormat("phase_mutate_seconds: %.3f\n",
                      snapshot.mutate_seconds);
  report += StrFormat("phase_commit_seconds: %.3f\n",
                      snapshot.commit_seconds);
  report += StrFormat("phase_reanonymize_seconds: %.3f\n",
                      snapshot.reanonymize_seconds);
  return report;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats snapshot = stats_;
  snapshot.queue_depth = queue_.size();
  return snapshot;
}

}  // namespace serve
}  // namespace ksym
