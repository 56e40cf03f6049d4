// Dynamic-graph sessions: the shared engine under the daemon's
// mutate/commit/reanonymize ops and the ksym_dynamic replay CLI
// (DESIGN.md §15).
//
// A DynamicSession is one named, long-lived mutable graph: a DeltaGraph
// and a staged (validated but uncommitted) edit batch. Reanonymize
// resolves in strictly cheapening order:
//
//   release cache hit (checksum, k)   -> no refinement, no orbit copy
//   plan cache hit (checksum)         -> orbit copy only
//   full refine                       -> TDV of the compacted graph
//
// whichever path ran, the result is inserted under the current checksum,
// and every path yields bit-identical releases (the TDV is a canonical
// VertexPartition; AnonymizeWithPartition is deterministic given the
// partition).
//
// Sessions are not thread-safe; the daemon wraps each in a mutex
// (serve/dynamic.h), the CLI is single-threaded.

#ifndef KSYM_DYN_SESSION_H_
#define KSYM_DYN_SESSION_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/parallel.h"
#include "common/status.h"
#include "dyn/delta_graph.h"
#include "dyn/plan_cache.h"
#include "ksym/release_io.h"

namespace ksym {
namespace dyn {

/// Per-session lifetime counters (reported by the daemon stats op and the
/// ksym_dynamic stderr log).
struct SessionStats {
  size_t mutates = 0;          // Accepted mutate calls.
  size_t commits = 0;
  size_t edits_committed = 0;
  size_t compactions = 0;
  size_t reanonymizes = 0;
  size_t release_cache_hits = 0;
  size_t plan_cache_hits = 0;  // Plan found under the current checksum.
  size_t full_refines = 0;     // Plans derived by refinement.
};

struct CommitOutcome {
  size_t edits = 0;
  size_t touched_vertices = 0;
  bool compacted = false;
  double overlay_ratio = 0.0;  // After the commit (0 when compacted).
  size_t num_edges = 0;
};

struct ReanonymizeOutcome {
  std::shared_ptr<const ReleaseTriple> release;
  uint64_t graph_checksum = 0;
  uint64_t partition_checksum = 0;
  bool release_cache_hit = false;
  bool plan_cache_hit = false;
  size_t vertices_added = 0;
  size_t edges_added = 0;
};

class DynamicSession {
 public:
  /// `cache` must outlive the session. `compact_ratio` is the overlay /
  /// base-arc threshold past which a commit compacts (<= 0 compacts on
  /// every commit).
  DynamicSession(std::string name, Graph base, double compact_ratio,
                 PlanCache* cache);

  DynamicSession(const DynamicSession&) = delete;
  DynamicSession& operator=(const DynamicSession&) = delete;

  const std::string& name() const { return name_; }
  const DeltaGraph& graph() const { return graph_; }
  const SessionStats& stats() const { return stats_; }
  size_t staged_edits() const { return staged_.size(); }

  /// Stages more edits: the combined staged batch must pass the full
  /// validation ladder against the committed graph, so errors surface at
  /// mutate time and a failed call leaves the staged batch unchanged.
  Status Stage(const EditBatch& edits);

  /// Applies the staged batch to the graph and compacts past the ratio
  /// threshold. Committing an empty stage is an
  /// error (FailedPrecondition).
  Result<CommitOutcome> Commit();

  /// Anonymizes the current committed graph (staged edits excluded) with
  /// requirement k, through the cache ladder above. `context` supplies the
  /// execution policy (and receives phase timers / refine counters).
  Result<ReanonymizeOutcome> Reanonymize(uint32_t k,
                                         const ExecutionContext* context);

 private:
  std::string name_;
  DeltaGraph graph_;
  double compact_ratio_;
  PlanCache* cache_;
  EditBatch staged_;
  SessionStats stats_;
};

/// The daemon's named-session table plus the shared PlanCache. Thread-safe
/// for create/find; per-session work serializes on the entry's `mu`.
class DynamicRegistry {
 public:
  explicit DynamicRegistry(size_t plan_cache_bytes)
      : plan_cache_(plan_cache_bytes) {}

  struct Entry {
    std::mutex mu;
    DynamicSession session;

    Entry(std::string name, Graph base, double compact_ratio,
          PlanCache* cache)
        : session(std::move(name), std::move(base), compact_ratio, cache) {}
  };

  /// Creates a session; AlreadyExists-flavoured InvalidArgument if the
  /// name is taken.
  Result<std::shared_ptr<Entry>> Create(const std::string& name, Graph base,
                                        double compact_ratio);

  /// NotFound when no such session.
  Result<std::shared_ptr<Entry>> Find(const std::string& name);

  PlanCache& plan_cache() { return plan_cache_; }
  size_t num_sessions() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Entry>> sessions_;
  PlanCache plan_cache_;
};

}  // namespace dyn
}  // namespace ksym

#endif  // KSYM_DYN_SESSION_H_
