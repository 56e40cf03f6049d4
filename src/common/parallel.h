// Execution policy for the analysis layers: a fixed thread pool, a
// deterministic ParallelFor, and the ExecutionContext handed through the
// refinement / orbit / anonymization / evaluation entry points.
//
// Exactly three loops run on the pool, the three that beat their plain
// loop in a benchmark (DESIGN.md §8): DrawSamples (one sample per index),
// NeighborhoodMeasure (one ego-net key per vertex) and
// RecoverSybils (one embedding search per anchor). Every other consumer
// runs sequentially and uses its context only as a stats sink, or ignores
// it.
//
// Design rules, relied on by those kernels:
//   * ParallelFor uses *static* chunking — shard s always receives the same
//     contiguous index range for a given (n, num_threads) — so any
//     shard-indexed output buffer is filled deterministically.
//   * ThreadPool::Run is a barrier: when it returns, every shard's writes
//     are visible to the caller (release/acquire via the pool's mutex).
//   * The pool is fixed-size and reused; no threads are created or joined
//     on the hot path.

#ifndef KSYM_COMMON_PARALLEL_H_
#define KSYM_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/timer.h"

namespace ksym {

/// A fixed pool of num_threads workers (the calling thread doubles as
/// worker 0, so only num_threads - 1 threads are spawned).
class ThreadPool {
 public:
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_threads() const { return num_threads_; }

  /// Invokes fn(worker) for every worker in [0, num_threads), blocking until
  /// all invocations return. fn(0) runs on the calling thread. Not
  /// reentrant: fn must not call Run on the same pool.
  void Run(const std::function<void(uint32_t)>& fn);

 private:
  void WorkerLoop(uint32_t worker);

  const uint32_t num_threads_;
  std::vector<std::thread> threads_;  // num_threads_ - 1 spawned workers.

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(uint32_t)>* task_ = nullptr;  // Guarded by mu_.
  uint64_t generation_ = 0;                              // Guarded by mu_.
  uint32_t pending_ = 0;                                 // Guarded by mu_.
  bool shutdown_ = false;                                // Guarded by mu_.
};

/// Runs fn(begin, end, shard) over a static partition of [0, n) into
/// num_threads contiguous chunks (shard s gets [s*chunk, min(n, (s+1)*chunk))
/// with chunk = ceil(n / num_threads)). Empty shards are skipped. With a
/// null pool (or a single-thread pool) the whole range runs inline as
/// shard 0 — the sequential fallback.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t, size_t, uint32_t)>& fn);

/// Counters and per-phase wall times accumulated by the refinement stack
/// and the anonymization pipeline. Exposed on AnonymizationResult so
/// callers stop re-deriving cost from scratch.
struct RefinementStats {
  uint64_t refine_calls = 0;         // DoRefine invocations.
  uint64_t splitters_processed = 0;  // Worklist entries consumed.
  uint64_t cells_split = 0;          // SplitCell operations applied.
  uint64_t parallel_splitters = 0;   // Always 0: refinement is sequential.
  double refine_seconds = 0.0;       // Wall time inside refinement.
  double partition_seconds = 0.0;    // Initial partition (Orb(G) or TDV(G)).
  double copy_seconds = 0.0;         // Orbit-copy phase of Algorithm 1.
  double backbone_seconds = 0.0;     // Backbone detection, when timed.
};

/// Execution policy threaded through Refiner, EquitablePartition, orbit
/// computation, AnonymizationOptions, backbone detection and the
/// evaluation kernels: how many threads the three parallel kernels use,
/// and a stats sink for per-phase timers. Refinement itself always runs
/// sequentially and only reports into the sink.
///
/// threads == 1 (the default) is the sequential policy: no pool is ever
/// created and every consumer behaves exactly as before this API existed.
///
/// Consumers take `const ExecutionContext*`: the context is logically
/// immutable configuration, while the pool (built lazily on first parallel
/// use) and the stats sink are interior-mutable. A context must not be
/// shared by concurrently-running consumers.
class ExecutionContext {
 public:
  ExecutionContext() = default;
  explicit ExecutionContext(uint32_t threads) : threads_(threads == 0 ? 1 : threads) {}

  uint32_t threads() const { return threads_; }
  bool IsSequential() const { return threads_ <= 1; }

  /// The pool, created on first call; nullptr when sequential.
  ThreadPool* pool() const;

  RefinementStats& stats() const { return stats_; }
  void ResetStats() const { stats_ = RefinementStats{}; }

 private:
  uint32_t threads_ = 1;
  mutable std::unique_ptr<ThreadPool> pool_;
  mutable RefinementStats stats_;
};

/// RAII phase timer: adds the scope's elapsed wall time to one
/// RefinementStats field of the context (no-op on a null context).
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(const ExecutionContext* context,
                   double RefinementStats::* field)
      : context_(context), field_(field) {}
  ~ScopedPhaseTimer() {
    if (context_ != nullptr) context_->stats().*field_ += timer_.ElapsedSeconds();
  }

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  const ExecutionContext* context_;
  double RefinementStats::* field_;
  Timer timer_;
};

}  // namespace ksym

#endif  // KSYM_COMMON_PARALLEL_H_
