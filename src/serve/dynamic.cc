#include "serve/dynamic.h"

#include <utility>

#include "common/parallel.h"
#include "common/str.h"
#include "common/timer.h"
#include "dyn/edits.h"
#include "graph/io.h"
#include "ksym/release_io.h"
#include "shard/manifest.h"

namespace ksym {
namespace serve {
namespace {

/// Loads the base graph for a new session. The session outlives any cache
/// pin, so the graph is deep-copied into owning storage either way; the
/// cache still saves the parse on repeat creations from the same file.
Result<Graph> LoadBaseGraph(const std::string& path, GraphCache* cache,
                            std::string* mode) {
  if (IsManifestFile(path)) {
    return Status::InvalidArgument(
        "dynamic sessions need the resident graph; sharded manifests are "
        "not supported (merge the shard set, or anonymize it statically "
        "with --tdv)");
  }
  if (cache != nullptr && IsCsrFile(path)) {
    bool hit = false;
    KSYM_ASSIGN_OR_RETURN(std::shared_ptr<const MappedCsrGraph> pinned,
                          cache->GetGraph(path, &hit));
    *mode = hit ? "binary csr, cached" : "binary csr, mmap";
    return Graph(pinned->graph);  // Deep copy: owning.
  }
  if (cache != nullptr) cache->RecordBypass();
  KSYM_ASSIGN_OR_RETURN(AutoLoadedGraph loaded, ReadGraphAuto(path));
  *mode = loaded.binary ? "binary csr, mmap" : "text";
  return Graph(loaded.graph);  // Deep copy out of the mapping's lifetime.
}

std::string ChecksumHex(uint64_t checksum) {
  return StrFormat("%016llx", static_cast<unsigned long long>(checksum));
}

}  // namespace

Result<Response> RunMutate(const MutateRequest& request, DynamicState* state,
                           GraphCache* cache) {
  if (request.session.empty()) {
    return Status::InvalidArgument("--session is required");
  }
  if (request.input.empty() && request.edits.empty()) {
    return Status::InvalidArgument(
        "mutate needs edits (or an input, to create the session)");
  }
  Response response;
  Timer timer;
  KSYM_ASSIGN_OR_RETURN(const dyn::EditBatch batch,
                        dyn::ParseEditList(request.edits));
  size_t staged = batch.size();
  if (!request.input.empty()) {
    std::string mode;
    KSYM_ASSIGN_OR_RETURN(Graph base,
                          LoadBaseGraph(request.input, cache, &mode));
    const size_t vertices = base.NumVertices();
    const size_t edges = base.NumEdges();
    KSYM_RETURN_IF_ERROR(
        state->registry.Create(request.session, std::move(base), batch)
            .status());
    response.report +=
        StrFormat("created session %s: %zu vertices, %zu edges\n",
                  request.session.c_str(), vertices, edges);
    response.log += StrFormat("input %s [%s]\n", request.input.c_str(),
                              mode.c_str());
  } else {
    KSYM_ASSIGN_OR_RETURN(
        const std::shared_ptr<dyn::DynamicRegistry::Entry> entry,
        state->registry.Find(request.session));
    std::lock_guard<std::mutex> lock(entry->mu);
    KSYM_RETURN_IF_ERROR(entry->session.Stage(batch));
    staged = entry->session.staged_edits();
  }
  if (!batch.empty()) {
    response.report += StrFormat("staged %zu edits (total staged %zu)\n",
                                 batch.size(), staged);
  }
  response.log += StrFormat("mutate %.1f ms\n", timer.ElapsedMillis());
  return response;
}

Result<Response> RunCommit(const CommitRequest& request, DynamicState* state) {
  if (request.session.empty()) {
    return Status::InvalidArgument("--session is required");
  }
  KSYM_ASSIGN_OR_RETURN(std::shared_ptr<dyn::DynamicRegistry::Entry> entry,
                        state->registry.Find(request.session));
  Response response;
  Timer timer;
  dyn::CommitOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    KSYM_ASSIGN_OR_RETURN(outcome, entry->session.Commit());
  }
  response.report += StrFormat(
      "committed %zu edits (%zu touched vertices): %zu edges now\n",
      outcome.edits, outcome.touched_vertices, outcome.num_edges);
  response.log += StrFormat("commit %.1f ms\n", timer.ElapsedMillis());
  return response;
}

Result<Response> RunReanonymize(const ReanonymizeRequest& request,
                                DynamicState* state) {
  if (request.session.empty()) {
    return Status::InvalidArgument("--session is required");
  }
  if (request.k < 1) {
    return Status::InvalidArgument("--k must be at least 1");
  }
  KSYM_ASSIGN_OR_RETURN(std::shared_ptr<dyn::DynamicRegistry::Entry> entry,
                        state->registry.Find(request.session));
  Response response;
  Timer timer;
  ExecutionContext context;
  dyn::ReanonymizeOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    KSYM_ASSIGN_OR_RETURN(outcome,
                          entry->session.Reanonymize(request.k, &context));
  }
  response.report +=
      StrFormat("reanonymize k=%u via full-refine\n", request.k);
  response.report += StrFormat("graph checksum: %s\n",
                               ChecksumHex(outcome.graph_checksum).c_str());
  response.report += StrFormat(
      "partition checksum: %s\n",
      ChecksumHex(outcome.partition_checksum).c_str());
  const ReleaseTriple& release = outcome.release;
  response.report += StrFormat(
      "release: %zu vertices, %zu edges (%zu originals)\n",
      release.graph.NumVertices(), release.graph.NumEdges(),
      release.original_vertices);
  if (!request.output.empty()) {
    KSYM_RETURN_IF_ERROR(request.binary
                             ? WriteReleaseCsrFile(release, request.output)
                             : WriteReleaseFile(release, request.output));
    response.report += StrFormat("wrote %s\n", request.output.c_str());
  }
  response.log += StrFormat("reanonymize %.1f ms\n", timer.ElapsedMillis());
  response.log += StrFormat(
      "refinement: %llu refine calls, %llu splitters\n",
      static_cast<unsigned long long>(context.stats().refine_calls),
      static_cast<unsigned long long>(context.stats().splitters_processed));
  return response;
}

Result<MutateRequest> MutateRequestFromWire(const WireObject& object) {
  MutateRequest r;
  KSYM_RETURN_IF_ERROR(DecodeFields(
      object,
      {{"session", &r.session}, {"input", &r.input}, {"edits", &r.edits}}));
  return r;
}

Result<CommitRequest> CommitRequestFromWire(const WireObject& object) {
  CommitRequest r;
  KSYM_RETURN_IF_ERROR(DecodeFields(object, {{"session", &r.session}}));
  return r;
}

Result<ReanonymizeRequest> ReanonymizeRequestFromWire(
    const WireObject& object) {
  ReanonymizeRequest r;
  uint32_t threads = 1;  // Accepted and ignored: an epoch runs one thread.
  KSYM_RETURN_IF_ERROR(DecodeFields(
      object, {{"session", &r.session}, {"output", &r.output}, {"k", &r.k},
               {"binary", &r.binary}, {"threads", &threads}}));
  return r;
}

}  // namespace serve
}  // namespace ksym
