#include "serve/api.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "attack/harness.h"
#include "attack/measures.h"
#include "attack/reidentification.h"
#include "attack/sybil.h"
#include "aut/orbits.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/str.h"
#include "common/timer.h"
#include "graph/algorithms.h"
#include "graph/io.h"
#include "ksym/anonymizer.h"
#include "ksym/minimal.h"
#include "ksym/release_io.h"
#include "ksym/sampling.h"
#include "ksym/sharded_anonymizer.h"
#include "shard/manifest.h"
#include "shard/sharded_graph.h"

namespace ksym {
namespace serve {
namespace {

// Caps on the bare counts that size a request's work, each at least ten
// times any count the tools, tests and benchmarks ask for. Past them a
// request would allocate without bound (a graph per sample, a measure per
// ell) or hold a worker for hours (label-propagation rounds).
constexpr uint64_t kMaxSamples = 1000;
constexpr uint64_t kMaxEll = 64;
constexpr uint64_t kMaxCommunityIterations = 100;

Status CheckCount(const char* flag, uint64_t count, uint64_t cap) {
  if (count <= cap) return Status::Ok();
  return Status::InvalidArgument(
      StrFormat("%s %llu exceeds the cap of %llu", flag,
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(cap)));
}

/// A resolved whole-graph input: either a cache pin or a locally loaded
/// graph, plus the load mode for the log line. Accessed through graph()
/// so the struct stays safely movable (no self-pointers).
struct ResolvedGraph {
  std::shared_ptr<const MappedCsrGraph> pinned;  // Cache hit path.
  AutoLoadedGraph owned;                         // Direct load path.
  const char* mode = "text";

  const Graph& graph() const {
    return pinned != nullptr ? pinned->graph : owned.graph;
  }
};

Result<ResolvedGraph> ResolveGraph(const std::string& path,
                                   GraphCache* cache) {
  ResolvedGraph resolved;
  if (cache != nullptr && IsCsrFile(path)) {
    bool hit = false;
    KSYM_ASSIGN_OR_RETURN(resolved.pinned, cache->GetGraph(path, &hit));
    resolved.mode = hit ? "binary csr, cached" : "binary csr, mmap";
    return resolved;
  }
  if (cache != nullptr) cache->RecordBypass();
  KSYM_ASSIGN_OR_RETURN(resolved.owned, ReadGraphAuto(path));
  resolved.mode = resolved.owned.binary ? "binary csr, mmap" : "text";
  return resolved;
}

/// A resolved release input, same shape.
struct ResolvedRelease {
  std::shared_ptr<const ReleaseTriple> pinned;
  ReleaseTriple owned;
  const char* mode = "direct";

  const ReleaseTriple& release() const {
    return pinned != nullptr ? *pinned : owned;
  }
};

Result<ResolvedRelease> ResolveRelease(const std::string& path,
                                       GraphCache* cache) {
  ResolvedRelease resolved;
  if (cache != nullptr && IsCsrFile(path)) {
    bool hit = false;
    KSYM_ASSIGN_OR_RETURN(resolved.pinned, cache->GetRelease(path, &hit));
    resolved.mode = hit ? "binary csr, cached" : "binary csr";
    return resolved;
  }
  if (cache != nullptr) cache->RecordBypass();
  KSYM_ASSIGN_OR_RETURN(resolved.owned, ReadReleaseAuto(path));
  return resolved;
}

void AppendPhaseStats(const RefinementStats& refinement, std::string& log) {
  log += StrFormat(
      "phases: partition %.1f ms (refine %.1f ms, "
      "%llu refine calls, %llu cells split), copy %.1f ms\n",
      refinement.partition_seconds * 1e3,
      refinement.refine_seconds * 1e3,
      static_cast<unsigned long long>(refinement.refine_calls),
      static_cast<unsigned long long>(refinement.cells_split),
      refinement.copy_seconds * 1e3);
}

Result<Response> RunAnonymizeSharded(const AnonymizeRequest& request,
                                     GraphCache* cache) {
  if (request.minimal) {
    return Status::InvalidArgument(
        "--minimal needs the resident graph; not available in sharded mode");
  }
  if (!request.tdv) {
    return Status::InvalidArgument(
        "sharded manifest input requires --tdv: the exact Orb(G) search "
        "needs the resident graph (rerun with --tdv to anonymize the shard "
        "set via the total degree partition)");
  }

  Response response;
  ExecutionContext context;
  ShardedAnonymizationOptions options;
  options.k = request.k;
  options.exclude_hubs_fraction = request.exclude_hubs;
  options.context = &context;
  options.output_shards = request.output_shards;

  // A ShardedGraph is immutable after Open, so concurrent requests share a
  // cached set without locking.
  std::shared_ptr<const ShardedGraph> graph;
  if (cache != nullptr) {
    bool hit = false;
    KSYM_ASSIGN_OR_RETURN(graph, cache->GetShardSet(request.input, &hit));
    response.log += StrFormat("shard set %s\n", hit ? "cached" : "opened");
  } else {
    KSYM_ASSIGN_OR_RETURN(ShardedGraph opened,
                          ShardedGraph::Open(request.input));
    graph = std::make_shared<const ShardedGraph>(std::move(opened));
  }

  response.report += StrFormat(
      "opened shard set %s: %zu vertices, %zu edges, %u shards "
      "[out-of-core]\n",
      request.input.c_str(), graph->NumVertices(), graph->NumEdges(),
      graph->NumShards());

  Timer timer;
  KSYM_ASSIGN_OR_RETURN(const ShardedAnonymizationResult result,
                        AnonymizeSharded(*graph, options, request.output));
  response.report += StrFormat(
      "anonymized to k=%u: +%zu vertices, +%zu edges, "
      "%zu copy operations, %zu hub orbits excluded\n",
      request.k, result.vertices_added, result.edges_added,
      result.copy_operations, result.orbits_excluded);
  response.log += StrFormat("anonymize %.1f ms\n", timer.ElapsedMillis());
  AppendPhaseStats(result.refinement, response.log);
  response.log += StrFormat("mapped %u shards, %zu bytes\n",
                            graph->NumShards(),
                            result.residency.resident_bytes);
  response.report += StrFormat(
      "wrote %zu-vertex release as %zu shards to %s.manifest\n",
      result.released_vertices, result.manifest.NumShards(),
      request.output.c_str());
  return response;
}

}  // namespace

Result<Response> RunAnonymize(const AnonymizeRequest& request,
                              GraphCache* cache) {
  if (request.input.empty() || request.output.empty()) {
    return Status::InvalidArgument("--input and --output are required");
  }
  if (request.k < 1) {
    return Status::InvalidArgument("--k must be at least 1");
  }
  // Checked before the manifest branch: a fraction >= 1 excludes every
  // orbit, and a negative or non-finite one would be silently ignored.
  if (!(request.exclude_hubs >= 0.0 && request.exclude_hubs < 1.0)) {
    return Status::InvalidArgument(
        StrFormat("--exclude-hubs must be a fraction in [0, 1), got %g",
                  request.exclude_hubs));
  }
  if (IsManifestFile(request.input)) {
    return RunAnonymizeSharded(request, cache);
  }

  Response response;
  KSYM_ASSIGN_OR_RETURN(const ResolvedGraph input,
                        ResolveGraph(request.input, cache));
  const Graph& graph = input.graph();
  const DegreeStats stats = ComputeDegreeStats(graph);
  response.report += StrFormat(
      "loaded %zu vertices, %zu edges (max degree %zu)\n", stats.num_vertices,
      stats.num_edges, stats.max_degree);
  response.log += StrFormat("input %s [%s]\n", request.input.c_str(),
                            input.mode);

  ExecutionContext context;
  AnonymizationOptions options;
  options.k = request.k;
  options.use_total_degree_partition = request.tdv;
  options.context = &context;
  if (request.exclude_hubs > 0.0) {
    options.requirement = HubExclusionRequirement(
        request.k,
        DegreeThresholdForExcludedFraction(graph, request.exclude_hubs));
  }

  Timer timer;
  KSYM_ASSIGN_OR_RETURN(AnonymizationResult result,
                        request.minimal
                            ? AnonymizeMinimalVertices(graph, options)
                            : Anonymize(graph, options));
  response.report += StrFormat(
      "anonymized to k=%u: +%zu vertices, +%zu edges, "
      "%zu copy operations, %zu hub orbits excluded\n",
      request.k, result.vertices_added, result.edges_added,
      result.copy_operations, result.orbits_excluded);
  response.log += StrFormat("anonymize %.1f ms\n", timer.ElapsedMillis());
  AppendPhaseStats(result.refinement, response.log);

  const ReleaseTriple release = MakeReleaseTriple(std::move(result));
  KSYM_RETURN_IF_ERROR(request.binary
                           ? WriteReleaseCsrFile(release, request.output)
                           : WriteReleaseFile(release, request.output));
  response.report += StrFormat("wrote release %s to %s\n",
                               request.binary ? "(binary csr)" : "triple",
                               request.output.c_str());
  return response;
}

Result<Response> RunAudit(const AuditRequest& request, GraphCache* cache) {
  if (request.input.empty()) {
    return Status::InvalidArgument("--input is required");
  }

  Response response;
  KSYM_ASSIGN_OR_RETURN(const ResolvedGraph input,
                        ResolveGraph(request.input, cache));
  const Graph& graph = input.graph();
  response.log += StrFormat("input %s [%s]\n", request.input.c_str(),
                            input.mode);
  const DegreeStats stats = ComputeDegreeStats(graph);
  response.report += StrFormat(
      "graph: %zu vertices, %zu edges, degree %zu..%zu (avg %.2f)\n",
      stats.num_vertices, stats.num_edges, stats.min_degree, stats.max_degree,
      stats.average_degree);

  Timer timer;
  const VertexPartition orbits =
      request.tdv ? ComputeTotalDegreePartition(graph, nullptr)
                  : ComputeAutomorphismPartition(graph, {}, nullptr);
  response.report += StrFormat(
      "%s partition: %zu cells, %zu singletons%s\n",
      request.tdv ? "TDV" : "orbit", orbits.NumCells(), orbits.NumSingletons(),
      request.tdv ? "  [upper approximation of Orb(G)]" : "");
  response.log += StrFormat("partition %.1f ms\n", timer.ElapsedMillis());

  size_t under_k = 0;
  size_t min_cell = graph.NumVertices();
  for (const auto& cell : orbits.cells) {
    if (cell.size() < request.k) under_k += cell.size();
    if (cell.size() < min_cell) min_cell = cell.size();
  }
  response.report += StrFormat(
      "k=%u symmetry: %s (minimum cell size %zu; %zu vertices in "
      "cells below k)\n",
      request.k, under_k == 0 ? "SATISFIED" : "NOT satisfied", min_cell,
      under_k);

  response.report += StrFormat("\n%-20s %10s %12s %8s %8s\n", "measure",
                               "unique", "under-k", "r_f", "s_f");
  for (const auto& measure :
       {DegreeMeasure(), TriangleMeasure(), NeighborDegreeSequenceMeasure(),
        NeighborhoodMeasure(), CombinedMeasure()}) {
    const VertexPartition cells = PartitionByMeasure(graph, measure);
    size_t exposed = 0;
    for (const auto& cell : cells.cells) {
      if (cell.size() < request.k) exposed += cell.size();
    }
    const ReidentificationStats r = CompareToOrbits(cells, orbits);
    response.report += StrFormat("%-20s %10zu %12zu %8.3f %8.3f\n",
                                 measure.name.c_str(), r.measure_singletons,
                                 exposed, r.r_f, r.s_f);
  }
  return response;
}

Result<Response> RunSample(const SampleRequest& request, GraphCache* cache) {
  if (request.release.empty() || request.output_prefix.empty()) {
    return Status::InvalidArgument(
        "--release and --output-prefix are required");
  }
  KSYM_RETURN_IF_ERROR(
      CheckCount("--samples", request.samples, kMaxSamples));
  KSYM_ASSIGN_OR_RETURN(const ResolvedRelease resolved,
                        ResolveRelease(request.release, cache));
  const ReleaseTriple& release = resolved.release();

  const Rng rng(request.seed);
  ExecutionContext context(request.threads);
  Timer timer;
  BatchSampleOptions batch;
  batch.num_samples = static_cast<size_t>(request.samples);
  batch.target_vertices = release.original_vertices;
  batch.exact = request.exact;
  batch.context = &context;
  KSYM_ASSIGN_OR_RETURN(
      const std::vector<Graph> samples,
      DrawSamples(release.graph, release.partition, batch, rng));
  const double elapsed_ms = timer.ElapsedMillis();

  Response response;
  response.log += StrFormat("release %s [%s]\n", request.release.c_str(),
                            resolved.mode);
  response.report += StrFormat(
      "release: %zu vertices, %zu edges, %zu cells, n=%zu\n",
      release.graph.NumVertices(), release.graph.NumEdges(),
      release.partition.cells.size(), release.original_vertices);
  for (size_t i = 0; i < samples.size(); ++i) {
    const Graph& sample = samples[i];
    const std::string path = request.output_prefix + "." +
                             std::to_string(i) +
                             (request.binary ? ".ksymcsr" : ".edges");
    KSYM_RETURN_IF_ERROR(request.binary
                             ? WriteCsrFile(sample, {}, path)
                             : WriteEdgeListFile(sample, path));
    const DegreeStats stats = ComputeDegreeStats(sample);
    response.report += StrFormat("  %s: %zu vertices, %zu edges\n",
                                 path.c_str(), stats.num_vertices,
                                 stats.num_edges);
  }
  response.report += StrFormat("wrote %zu %s samples\n", samples.size(),
                               request.exact ? "exact" : "approximate");
  response.log += StrFormat("sampling %.1f ms (threads=%u)\n", elapsed_ms,
                            context.threads());
  return response;
}

Result<Response> RunAttack(const AttackRequest& request, GraphCache* cache) {
  if (request.input.empty()) {
    return Status::InvalidArgument("--input is required");
  }
  if (request.k < 1) {
    return Status::InvalidArgument("--k must be at least 1");
  }
  KSYM_RETURN_IF_ERROR(CheckCount("--max-ell", request.max_ell, kMaxEll));
  KSYM_RETURN_IF_ERROR(CheckCount("--community-iters",
                                  request.community_iters,
                                  kMaxCommunityIterations));
  if (IsManifestFile(request.input)) {
    return Status::InvalidArgument(
        "attack needs the resident graph; sharded manifests are not "
        "supported (anonymize the shard set with --tdv first, then attack "
        "the release)");
  }

  Response response;
  KSYM_ASSIGN_OR_RETURN(const ResolvedGraph input,
                        ResolveGraph(request.input, cache));
  const Graph& graph = input.graph();
  response.report += StrFormat("loaded %zu vertices, %zu edges\n",
                               graph.NumVertices(), graph.NumEdges());
  response.log += StrFormat("input %s [%s]\n", request.input.c_str(),
                            input.mode);

  ExecutionContext context(request.threads);

  // Phase 1: the adversary injects its sybil subgraph *before* the
  // publisher anonymizes — the active-attack threat model.
  SybilPlantOptions plant_options;
  plant_options.num_sybils = request.sybils;
  plant_options.num_targets = request.targets;
  plant_options.seed = request.seed;
  KSYM_ASSIGN_OR_RETURN(const SybilPlant plant,
                        PlantSybils(graph, plant_options));
  response.report += StrFormat(
      "planted %u sybils, %u fingerprinted targets (seed %llu): "
      "+%zu edges\n",
      request.sybils, request.targets,
      static_cast<unsigned long long>(request.seed),
      plant.graph.NumEdges() - graph.NumEdges());

  SybilRecoveryOptions recovery;
  recovery.context = &context;

  // Baseline: attack the naively released (un-anonymized) augmented graph.
  Timer timer;
  const SybilAttackReport naive = RecoverSybils(plant.graph, plant.plan,
                                                recovery);
  response.log += StrFormat("naive recovery %.1f ms\n", timer.ElapsedMillis());

  // Phase 2: the publisher anonymizes the augmented graph, sybils and all.
  AnonymizationOptions options;
  options.k = request.k;
  options.use_total_degree_partition = request.tdv;
  options.context = &context;
  timer.Reset();
  KSYM_ASSIGN_OR_RETURN(const AnonymizationResult result,
                        Anonymize(plant.graph, options));
  response.report += StrFormat(
      "anonymized to k=%u: +%zu vertices, +%zu edges\n", request.k,
      result.vertices_added, result.edges_added);
  response.log += StrFormat("anonymize %.1f ms\n", timer.ElapsedMillis());
  AppendPhaseStats(result.refinement, response.log);

  // Phase 3: every adversary attacks the release. r_f/s_f compare against
  // the release's exact orbits (not the released sub-automorphism
  // partition, which subdivides them).
  timer.Reset();
  const VertexPartition orbits =
      ComputeAutomorphismPartition(result.graph, {}, &context);
  response.log += StrFormat("release orbits %.1f ms\n", timer.ElapsedMillis());
  size_t min_orbit = result.graph.NumVertices();
  for (const auto& cell : orbits.cells) {
    min_orbit = std::min(min_orbit, cell.size());
  }
  response.report += StrFormat(
      "release: %zu vertices, %zu edges, %zu orbits (min orbit %zu)\n\n",
      result.graph.NumVertices(), result.graph.NumEdges(), orbits.NumCells(),
      min_orbit);

  timer.Reset();
  const SybilAttackReport recovered = RecoverSybils(result.graph, plant.plan,
                                                    recovery);
  response.log += StrFormat("release recovery %.1f ms\n",
                            timer.ElapsedMillis());
  response.report += FormatSybilSection("naive release", plant.plan, naive);
  response.report += FormatSybilSection("anonymized release", plant.plan,
                                        recovered);
  response.report += "\n";

  AttackHarnessOptions harness;
  harness.k = request.k;
  harness.max_ell = request.max_ell;
  harness.community_iterations = request.community_iters;
  timer.Reset();
  const std::vector<MeasureAttackRow> rows =
      EvaluatePassiveAttacks(result.graph, orbits, harness);
  response.log += StrFormat("passive attacks %.1f ms\n",
                            timer.ElapsedMillis());
  response.report += FormatPassiveSection(rows, request.k);
  return response;
}

// ---------------------------------------------------------------------------
// Wire decoding.
// ---------------------------------------------------------------------------

namespace {

// Stores `value` in `out` when its kind, and range, fit `out`'s type.
bool Store(const WireValue& value, std::string& out) {
  if (value.kind == WireValue::Kind::kString) out = value.str;
  return value.kind == WireValue::Kind::kString;
}

bool Store(const WireValue& value, bool& out) {
  if (value.kind == WireValue::Kind::kBool) out = value.b;
  return value.kind == WireValue::Kind::kBool;
}

bool Store(const WireValue& value, double& out) {
  using Kind = WireValue::Kind;
  if (value.kind == Kind::kString || value.kind == Kind::kBool) return false;
  out = value.kind == Kind::kDouble ? value.d
        : value.kind == Kind::kUint ? static_cast<double>(value.u)
                                    : static_cast<double>(value.i);
  return true;
}

// Parsed lines carry every non-negative integer as kUint.
template <typename T>
bool Store(const WireValue& value, T& out) {
  if (value.kind != WireValue::Kind::kUint ||
      value.u > std::numeric_limits<T>::max()) {
    return false;
  }
  out = static_cast<T>(value.u);
  return true;
}

}  // namespace

Status DecodeField(const WireField& field, const WireValue& value) {
  // What each WireField::out alternative takes; each WireValue kind's name.
  static constexpr const char* kExpected[] = {
      "a string", "true or false", "a number",
      "an integer in [0, 4294967295]", "a non-negative integer"};
  static constexpr const char* kKinds[] = {"string", "integer", "integer",
                                           "float", "boolean"};
  if (std::visit([&value](auto* out) { return Store(value, *out); },
                 field.out)) {
    return Status::Ok();
  }
  WireObject quoted;
  quoted.Set("", value);
  const std::string line = SerializeWireLine(quoted);  // {"":<value>}
  return Status::InvalidArgument(StrFormat(
      "request field \"%s\" must be %s, got %s %s", field.key,
      kExpected[field.out.index()], kKinds[static_cast<int>(value.kind)],
      line.substr(4, line.size() - 5).c_str()));
}

Status DecodeFields(const WireObject& object,
                    std::initializer_list<WireField> fields) {
  for (const auto& [key, value] : object.fields) {
    if (key == "op" || key == "id" || key == "deadline_ms") continue;
    const WireField* field =
        std::find_if(fields.begin(), fields.end(),
                     [&key](const WireField& f) { return key == f.key; });
    if (field == fields.end()) {
      return Status::InvalidArgument(
          StrFormat("unknown request field \"%s\"", key.c_str()));
    }
    KSYM_RETURN_IF_ERROR(DecodeField(*field, value));
  }
  return Status::Ok();
}

Result<AnonymizeRequest> AnonymizeRequestFromWire(const WireObject& object) {
  AnonymizeRequest r;
  KSYM_RETURN_IF_ERROR(DecodeFields(
      object, {{"input", &r.input}, {"output", &r.output}, {"k", &r.k},
               {"exclude_hubs", &r.exclude_hubs}, {"minimal", &r.minimal},
               {"tdv", &r.tdv}, {"binary", &r.binary},
               {"threads", &r.threads}, {"output_shards", &r.output_shards}}));
  return r;
}

Result<AuditRequest> AuditRequestFromWire(const WireObject& object) {
  AuditRequest r;
  uint32_t threads = 1;  // Accepted and ignored: an audit runs one thread.
  KSYM_RETURN_IF_ERROR(DecodeFields(object, {{"input", &r.input},
                                             {"k", &r.k},
                                             {"tdv", &r.tdv},
                                             {"threads", &threads}}));
  return r;
}

Result<SampleRequest> SampleRequestFromWire(const WireObject& object) {
  SampleRequest r;
  KSYM_RETURN_IF_ERROR(DecodeFields(
      object, {{"release", &r.release}, {"output_prefix", &r.output_prefix},
               {"samples", &r.samples}, {"exact", &r.exact},
               {"seed", &r.seed}, {"threads", &r.threads},
               {"binary", &r.binary}}));
  return r;
}

Result<AttackRequest> AttackRequestFromWire(const WireObject& object) {
  AttackRequest r;
  KSYM_RETURN_IF_ERROR(DecodeFields(
      object, {{"input", &r.input}, {"k", &r.k}, {"tdv", &r.tdv},
               {"sybils", &r.sybils}, {"targets", &r.targets},
               {"seed", &r.seed}, {"max_ell", &r.max_ell},
               {"community_iters", &r.community_iters},
               {"threads", &r.threads}}));
  return r;
}

}  // namespace serve
}  // namespace ksym
