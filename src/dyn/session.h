// Dynamic-graph sessions: the shared engine under the daemon's
// mutate/commit/reanonymize ops and the ksym_dynamic replay CLI
// (DESIGN.md §15).
//
// A DynamicSession is one named, long-lived mutable graph: a committed CSR
// Graph and a staged (validated but uncommitted) edit batch. Commit
// rebuilds the CSR once with the staged batch applied (O(n + m)), and
// Reanonymize refines the committed graph to its TDV and runs Algorithm 1
// on it, so every release equals AnonymizeWithPartition on a from-scratch
// graph with the same edge set.
//
// Sessions are not thread-safe; the daemon wraps each in a mutex
// (serve/dynamic.h), the CLI is single-threaded.

#ifndef KSYM_DYN_SESSION_H_
#define KSYM_DYN_SESSION_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "common/status.h"
#include "dyn/edits.h"
#include "graph/graph.h"
#include "ksym/release_io.h"

namespace ksym {
namespace dyn {

/// Per-session lifetime counters (reported by the ksym_dynamic stderr log).
struct SessionStats {
  size_t mutates = 0;  // Accepted Stage calls.
  size_t commits = 0;
  size_t edits_committed = 0;
  size_t reanonymizes = 0;
};

struct CommitOutcome {
  size_t edits = 0;
  size_t touched_vertices = 0;
  size_t num_edges = 0;
};

struct ReanonymizeOutcome {
  ReleaseTriple release;
  uint64_t graph_checksum = 0;      // GraphContentChecksum of the graph.
  uint64_t partition_checksum = 0;  // PartitionChecksum of its TDV.
};

class DynamicSession {
 public:
  explicit DynamicSession(Graph base) : graph_(std::move(base)) {}

  DynamicSession(const DynamicSession&) = delete;
  DynamicSession& operator=(const DynamicSession&) = delete;

  /// The committed graph (staged edits excluded).
  const Graph& graph() const { return graph_; }
  const SessionStats& stats() const { return stats_; }
  size_t staged_edits() const { return staged_.size(); }

  /// Stages more edits: the combined staged batch must pass the full
  /// validation ladder against the committed graph, so errors surface at
  /// mutate time and a failed call leaves the staged batch unchanged.
  Status Stage(const EditBatch& edits);

  /// Rebuilds the committed graph with the staged batch applied. Committing
  /// an empty stage is an error (FailedPrecondition).
  Result<CommitOutcome> Commit();

  /// Anonymizes the committed graph with requirement k: TDV, then
  /// AnonymizeWithPartition. `context` supplies the execution policy (and
  /// receives phase timers / refine counters).
  Result<ReanonymizeOutcome> Reanonymize(uint32_t k,
                                         const ExecutionContext* context);

 private:
  Graph graph_;
  EditBatch staged_;
  SessionStats stats_;
};

/// The daemon's named-session table. Thread-safe for create/find;
/// per-session work serializes on the entry's `mu`.
class DynamicRegistry {
 public:
  struct Entry {
    explicit Entry(Graph base) : session(std::move(base)) {}

    std::mutex mu;
    DynamicSession session;
  };

  /// Creates a session on `base` with `edits` staged. The session is
  /// registered only once the edits pass validation against `base` and the
  /// name is free (InvalidArgument if taken), so a failed create leaves
  /// nothing behind.
  Result<std::shared_ptr<Entry>> Create(const std::string& name, Graph base,
                                        const EditBatch& edits);

  /// NotFound when no such session.
  Result<std::shared_ptr<Entry>> Find(const std::string& name);

  size_t num_sessions() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Entry>> sessions_;
};

}  // namespace dyn
}  // namespace ksym

#endif  // KSYM_DYN_SESSION_H_
