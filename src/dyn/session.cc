#include "dyn/session.h"

#include <utility>

#include "aut/orbits.h"
#include "dyn/repair.h"
#include "ksym/anonymizer.h"

namespace ksym {
namespace dyn {

DynamicSession::DynamicSession(std::string name, Graph base,
                               double compact_ratio, PlanCache* cache)
    : name_(std::move(name)),
      graph_(std::move(base)),
      compact_ratio_(compact_ratio),
      cache_(cache) {}

Status DynamicSession::Stage(const EditBatch& edits) {
  if (edits.empty()) {
    return Status::InvalidArgument("mutate with no edits");
  }
  EditBatch combined = staged_;
  for (const Edit& e : edits.edits()) combined.Add(e);
  KSYM_RETURN_IF_ERROR(graph_.Validate(combined));
  staged_ = std::move(combined);
  ++stats_.mutates;
  return Status::Ok();
}

Result<CommitOutcome> DynamicSession::Commit() {
  if (staged_.empty()) {
    return Status::FailedPrecondition(
        "commit with no staged edits (mutate first)");
  }
  KSYM_RETURN_IF_ERROR(graph_.Apply(staged_));
  CommitOutcome outcome;
  outcome.edits = staged_.size();
  outcome.touched_vertices = staged_.Endpoints().size();
  outcome.num_edges = graph_.NumEdges();
  staged_.clear();
  ++stats_.commits;
  stats_.edits_committed += outcome.edits;
  if (graph_.OverlayRatio() > compact_ratio_) {
    graph_.CompactInPlace();
    outcome.compacted = true;
    ++stats_.compactions;
  }
  outcome.overlay_ratio = graph_.OverlayRatio();
  return outcome;
}

Result<ReanonymizeOutcome> DynamicSession::Reanonymize(
    uint32_t k, const ExecutionContext* context) {
  ++stats_.reanonymizes;
  ReanonymizeOutcome outcome;
  outcome.graph_checksum = graph_.ContentChecksum();

  if (std::shared_ptr<const ReleaseTriple> release =
          cache_->GetRelease(outcome.graph_checksum, k)) {
    // Warm path: no refinement, no orbit copy, nothing but the lookup.
    outcome.release = std::move(release);
    outcome.release_cache_hit = true;
    ++stats_.release_cache_hits;
    if (std::shared_ptr<const CachedPlan> plan =
            cache_->GetPlan(outcome.graph_checksum)) {
      outcome.partition_checksum = plan->partition_checksum;
    }
    return outcome;
  }

  // Both the refine and the orbit copy run on the resident merged graph.
  // Algorithm 1 cannot read the overlay (it mutates a MutableGraph), so
  // compact if needed; the checksum, and therefore the cache key, is
  // unchanged by compaction.
  Graph compacted;
  const Graph* resident = &graph_.base();
  if (graph_.HasOverlay()) {
    compacted = graph_.Compact();
    resident = &compacted;
  }

  std::shared_ptr<const CachedPlan> plan =
      cache_->GetPlan(outcome.graph_checksum);
  if (plan != nullptr) {
    outcome.plan_cache_hit = true;
    ++stats_.plan_cache_hits;
  } else {
    ScopedPhaseTimer timer(context, &RefinementStats::partition_seconds);
    CachedPlan fresh;
    fresh.tdv = ComputeTotalDegreePartition(*resident, context,
                                            &fresh.trace_hash);
    fresh.partition_checksum = PartitionChecksum(fresh.tdv);
    ++stats_.full_refines;
    plan = cache_->PutPlan(outcome.graph_checksum, std::move(fresh));
  }
  outcome.partition_checksum = plan->partition_checksum;

  AnonymizationOptions options;
  options.k = k;
  options.use_total_degree_partition = true;
  options.context = context;
  KSYM_ASSIGN_OR_RETURN(AnonymizationResult result,
                        AnonymizeWithPartition(*resident, plan->tdv, options));
  outcome.vertices_added = result.vertices_added;
  outcome.edges_added = result.edges_added;
  outcome.release = cache_->PutRelease(outcome.graph_checksum, k,
                                       MakeReleaseTriple(result));
  return outcome;
}

Result<std::shared_ptr<DynamicRegistry::Entry>> DynamicRegistry::Create(
    const std::string& name, Graph base, double compact_ratio) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.count(name) != 0) {
    return Status::InvalidArgument("dynamic session '" + name +
                                   "' already exists");
  }
  auto entry = std::make_shared<Entry>(name, std::move(base), compact_ratio,
                                       &plan_cache_);
  sessions_[name] = entry;
  return entry;
}

Result<std::shared_ptr<DynamicRegistry::Entry>> DynamicRegistry::Find(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::NotFound("no dynamic session named '" + name +
                            "' (create one with the mutate op's 'input' " +
                            "field)");
  }
  return it->second;
}

size_t DynamicRegistry::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace dyn
}  // namespace ksym
