#include "dyn/session.h"

#include <utility>

#include "aut/orbits.h"
#include "dyn/repair.h"
#include "ksym/anonymizer.h"

namespace ksym {
namespace dyn {

Status DynamicSession::Stage(const EditBatch& edits) {
  if (edits.empty()) {
    return Status::InvalidArgument("mutate with no edits");
  }
  EditBatch combined = staged_;
  for (const Edit& e : edits.edits()) combined.Add(e);
  KSYM_RETURN_IF_ERROR(ValidateEdits(graph_, combined));
  staged_ = std::move(combined);
  ++stats_.mutates;
  return Status::Ok();
}

Result<CommitOutcome> DynamicSession::Commit() {
  if (staged_.empty()) {
    return Status::FailedPrecondition(
        "commit with no staged edits (mutate first)");
  }
  KSYM_ASSIGN_OR_RETURN(graph_, ApplyEdits(graph_, staged_));
  CommitOutcome outcome;
  outcome.edits = staged_.size();
  outcome.touched_vertices = staged_.Endpoints().size();
  outcome.num_edges = graph_.NumEdges();
  staged_.clear();
  ++stats_.commits;
  stats_.edits_committed += outcome.edits;
  return outcome;
}

Result<ReanonymizeOutcome> DynamicSession::Reanonymize(
    uint32_t k, const ExecutionContext* context) {
  ++stats_.reanonymizes;
  ReanonymizeOutcome outcome;
  outcome.graph_checksum = GraphContentChecksum(graph_);
  VertexPartition tdv;
  {
    ScopedPhaseTimer timer(context, &RefinementStats::partition_seconds);
    tdv = ComputeTotalDegreePartition(graph_, context);
  }
  outcome.partition_checksum = PartitionChecksum(tdv);

  AnonymizationOptions options;
  options.k = k;
  options.use_total_degree_partition = true;
  options.context = context;
  KSYM_ASSIGN_OR_RETURN(AnonymizationResult result,
                        AnonymizeWithPartition(graph_, tdv, options));
  outcome.release = MakeReleaseTriple(std::move(result));
  return outcome;
}

Result<std::shared_ptr<DynamicRegistry::Entry>> DynamicRegistry::Create(
    const std::string& name, Graph base, const EditBatch& edits) {
  auto entry = std::make_shared<Entry>(std::move(base));
  if (!edits.empty()) KSYM_RETURN_IF_ERROR(entry->session.Stage(edits));
  std::lock_guard<std::mutex> lock(mu_);
  if (!sessions_.emplace(name, entry).second) {
    return Status::InvalidArgument("dynamic session '" + name +
                                   "' already exists");
  }
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
