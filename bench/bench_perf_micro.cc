// Microbenchmarks (google-benchmark) for the core primitives: neighbor
// scans over the CSR core (against the seed's vector-of-vectors layout),
// equitable refinement, automorphism search, orbit copying / anonymization
// (including the end-to-end pipeline and the vertex-minimal variant),
// backbone detection, and the two samplers. Complements the figure
// benches, which measure end-to-end shapes rather than throughput.
//
// Every run must name its JSON output with --benchmark_out=<file>; without
// it the binary prints a usage line and exits 2. Graph memory footprints
// (Graph::MemoryBytes) and process peak RSS are attached as counters, so
// the bench trajectory tracks space as well as time; the thread-scaling
// sweeps record how the three parallel kernels — batch sampling, the
// neighbourhood measure and sybil recovery — scale at 1/2/4/8 threads (and
// the neighbourhood measure on Hepth at 1/2/4, the paper_eval attack's
// recovery at 1/4, and a 4,000-target recovery at 1), the utility
// measures, the passive attack harness, the audit's measures and the whole
// audit request get one sequential row each, and the end-to-end anonymize
// bench attaches the pipeline's RefinementStats. The JSON context records
// hardware_concurrency so single-core containers (where the sweep cannot
// show real speedup) are identifiable from the artifact alone.
//
// The PR 4 load-path benches (BM_Load*) measure graph ingestion on the
// 200k- and 1M-vertex graphs: text edge-list parse vs owning binary
// .ksymcsr read vs mmap zero-copy load (validated and trusted variants) —
// the startup cost a publisher pays per anonymization run.
//
// BM_ShardedAnonymize runs the out-of-core publish over an 8-shard split
// of the 200k graph, against its in-memory baseline.
//
// The JSON context records the honest build types of both the repo code
// and the linked google-benchmark (the distro's library is a debug build;
// see bench/benchmarks.cmake).

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <filesystem>

#include "attack/adjacency.h"
#include "attack/community.h"
#include "attack/harness.h"
#include "attack/measures.h"
#include "attack/sybil.h"
#include "aut/orbits.h"
#include "aut/refinement.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "datasets/datasets.h"
#include "dyn/edits.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "ksym/anonymizer.h"
#include "ksym/backbone.h"
#include "ksym/minimal.h"
#include "ksym/release_io.h"
#include "ksym/sampling.h"
#include "ksym/sharded_anonymizer.h"
#include "serve/api.h"
#include "shard/partitioner.h"
#include "shard/sharded_graph.h"
#include "stats/distributions.h"
#include "stats/resilience.h"

namespace ksym {
namespace {

const Graph& EnronGraph() {
  static const Graph* graph = new Graph(MakeEnronLike());
  return *graph;
}

const Graph& HepthGraph() {
  static const Graph* graph = new Graph(MakeHepthLike());
  return *graph;
}

const Graph& NetTraceGraph() {
  static const Graph* graph = new Graph(MakeNetTraceLike());
  return *graph;
}

/// The Hepth stand-in's exact k = 5 release (9,215 vertices): orbit copies
/// make it twin-rich, the case the twin quotient targets.
const Graph& HepthReleaseGraph() {
  static const Graph* graph = [] {
    AnonymizationOptions options;
    options.k = 5;
    return new Graph(Anonymize(HepthGraph(), options).value().graph);
  }();
  return *graph;
}

const VertexPartition& HepthOrbits() {
  static const VertexPartition* orbits =
      new VertexPartition(ComputeAutomorphismPartition(HepthGraph(), {}, nullptr));
  return *orbits;
}

/// A large sparse social-network-shaped graph for the neighbor-scan
/// benches: 1M vertices / ~8M edges, big enough that the working set
/// spills out of cache and layout effects dominate.
const Graph& BigScanGraph() {
  static const Graph* graph = [] {
    Rng rng(42);
    return new Graph(BarabasiAlbert(1000000, 8, rng));
  }();
  return *graph;
}

/// A medium graph for the large refinement bench, sized so one refinement
/// pass takes milliseconds rather than seconds.
const Graph& BigRefineGraph() {
  static const Graph* graph = [] {
    Rng rng(42);
    return new Graph(BarabasiAlbert(200000, 4, rng));
  }();
  return *graph;
}

double PeakRssMegabytes() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

void AttachMemoryCounters(benchmark::State& state, const Graph& graph) {
  state.counters["graph_mem_bytes"] =
      benchmark::Counter(static_cast<double>(graph.MemoryBytes()));
  state.counters["peak_rss_mb"] = benchmark::Counter(PeakRssMegabytes());
}

// The seed representation this PR replaced: one heap-allocated vector per
// vertex, grown by push_back exactly as the pre-CSR GraphBuilder did.
// Kept here so the neighbor-scan before/after is measured in one binary.
std::vector<std::vector<VertexId>> VectorOfVectorsAdjacency(
    const Graph& graph) {
  std::vector<std::vector<VertexId>> adjacency(graph.NumVertices());
  graph.ForEachEdge([&adjacency](VertexId u, VertexId v) {
    adjacency[u].push_back(v);
    adjacency[v].push_back(u);
  });
  return adjacency;
}

size_t LegacyAdjacencyBytes(const std::vector<std::vector<VertexId>>& lists) {
  size_t bytes = sizeof(lists[0]) * lists.capacity();
  for (const auto& list : lists) bytes += list.capacity() * sizeof(VertexId);
  return bytes;
}

// --- PR 4 load-path benches: text parse vs owning binary read vs mmap.

/// On-disk copies of a bench graph in both formats, written once to the
/// temp dir. Iterating the load benches re-reads the same files, so the
/// page cache is warm for every contender — the comparison isolates
/// parse/copy/validate cost, not disk speed, matching the repeated-
/// ingestion workload the format exists for.
struct LoadFiles {
  std::string text;
  std::string csr;
};

const LoadFiles& LoadFilesFor(const Graph& graph, const char* stem) {
  static auto* cache = new std::vector<std::pair<std::string, LoadFiles>>();
  for (const auto& [key, files] : *cache) {
    if (key == stem) return files;
  }
  const std::string dir = std::filesystem::temp_directory_path().string();
  LoadFiles files;
  files.text = dir + "/ksym_bench_" + stem + ".edges";
  files.csr = dir + "/ksym_bench_" + stem + ".ksymcsr";
  KSYM_CHECK(WriteEdgeListFile(graph, files.text).ok());
  KSYM_CHECK(WriteCsrFile(graph, {}, files.csr).ok());
  cache->emplace_back(stem, std::move(files));
  return cache->back().second;
}

void AttachLoadCounters(benchmark::State& state, const Graph& graph,
                        const std::string& path) {
  state.counters["vertices"] =
      benchmark::Counter(static_cast<double>(graph.NumVertices()));
  state.counters["edges"] =
      benchmark::Counter(static_cast<double>(graph.NumEdges()));
  state.counters["file_bytes"] = benchmark::Counter(
      static_cast<double>(std::filesystem::file_size(path)));
  state.counters["peak_rss_mb"] = benchmark::Counter(PeakRssMegabytes());
}

void LoadTextBench(benchmark::State& state, const Graph& graph,
                   const char* stem) {
  const LoadFiles& files = LoadFilesFor(graph, stem);
  for (auto _ : state) {
    auto loaded = ReadEdgeListFile(files.text);
    KSYM_CHECK(loaded.ok());
    KSYM_CHECK(loaded->graph == graph);
    benchmark::DoNotOptimize(loaded);
  }
  AttachLoadCounters(state, graph, files.text);
}

void LoadCsrOwningBench(benchmark::State& state, const Graph& graph,
                        const char* stem) {
  const LoadFiles& files = LoadFilesFor(graph, stem);
  for (auto _ : state) {
    auto loaded = ReadCsrFile(files.csr);
    KSYM_CHECK(loaded.ok());
    benchmark::DoNotOptimize(loaded);
  }
  AttachLoadCounters(state, graph, files.csr);
}

void LoadCsrMmapBench(benchmark::State& state, const Graph& graph,
                      const char* stem, bool validate) {
  const LoadFiles& files = LoadFilesFor(graph, stem);
  CsrReadOptions options;
  options.validate = validate;
  for (auto _ : state) {
    auto mapped = MapCsrFile(files.csr, options);
    KSYM_CHECK(mapped.ok());
    // Touch the borrowed graph so the trusted path faults in at least the
    // header-adjacent pages; the validated path already scanned them all.
    benchmark::DoNotOptimize(mapped->graph.Neighbors(0).size());
    benchmark::DoNotOptimize(mapped);
  }
  AttachLoadCounters(state, graph, files.csr);
}

void BM_LoadTextEdgeList200k(benchmark::State& state) {
  LoadTextBench(state, BigRefineGraph(), "200k");
}
BENCHMARK(BM_LoadTextEdgeList200k)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_LoadCsrOwning200k(benchmark::State& state) {
  LoadCsrOwningBench(state, BigRefineGraph(), "200k");
}
BENCHMARK(BM_LoadCsrOwning200k)->Unit(benchmark::kMillisecond);

void BM_LoadCsrMmap200k(benchmark::State& state) {
  LoadCsrMmapBench(state, BigRefineGraph(), "200k", /*validate=*/true);
}
BENCHMARK(BM_LoadCsrMmap200k)->Unit(benchmark::kMillisecond);

void BM_LoadCsrMmapTrusted200k(benchmark::State& state) {
  LoadCsrMmapBench(state, BigRefineGraph(), "200k", /*validate=*/false);
}
BENCHMARK(BM_LoadCsrMmapTrusted200k)->Unit(benchmark::kMillisecond);

void BM_LoadTextEdgeList1M(benchmark::State& state) {
  LoadTextBench(state, BigScanGraph(), "1m");
}
BENCHMARK(BM_LoadTextEdgeList1M)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_LoadCsrOwning1M(benchmark::State& state) {
  LoadCsrOwningBench(state, BigScanGraph(), "1m");
}
BENCHMARK(BM_LoadCsrOwning1M)->Unit(benchmark::kMillisecond);

void BM_LoadCsrMmap1M(benchmark::State& state) {
  LoadCsrMmapBench(state, BigScanGraph(), "1m", /*validate=*/true);
}
BENCHMARK(BM_LoadCsrMmap1M)->Unit(benchmark::kMillisecond);

void BM_LoadCsrMmapTrusted1M(benchmark::State& state) {
  LoadCsrMmapBench(state, BigScanGraph(), "1m", /*validate=*/false);
}
BENCHMARK(BM_LoadCsrMmapTrusted1M)->Unit(benchmark::kMillisecond);

void BM_NeighborScanCsr(benchmark::State& state) {
  const Graph& graph = BigScanGraph();
  const VertexId n = static_cast<VertexId>(graph.NumVertices());
  for (auto _ : state) {
    uint64_t sum = 0;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : graph.Neighbors(u)) sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(2 * graph.NumEdges()));
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_NeighborScanCsr);

// Vertex visit order for the shuffled-scan benches: refinement and BFS
// touch neighbor lists in data-dependent order, not 0..n-1, so this is the
// access pattern where layout (one flat array vs one heap block per
// vertex) actually decides cache behavior.
const std::vector<VertexId>& ShuffledOrder(size_t n) {
  static const std::vector<VertexId>* order = [n] {
    auto* v = new std::vector<VertexId>(n);
    for (size_t i = 0; i < n; ++i) (*v)[i] = static_cast<VertexId>(i);
    Rng rng(7);
    for (size_t i = n; i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng.NextBounded(i)]);
    }
    return v;
  }();
  return *order;
}

void BM_NeighborScanShuffledCsr(benchmark::State& state) {
  const Graph& graph = BigScanGraph();
  const auto& order = ShuffledOrder(graph.NumVertices());
  for (auto _ : state) {
    uint64_t sum = 0;
    for (VertexId u : order) {
      for (VertexId v : graph.Neighbors(u)) sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(2 * graph.NumEdges()));
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_NeighborScanShuffledCsr);

void BM_NeighborScanShuffledVectorOfVectors(benchmark::State& state) {
  const Graph& graph = BigScanGraph();
  const auto adjacency = VectorOfVectorsAdjacency(graph);
  const auto& order = ShuffledOrder(graph.NumVertices());
  for (auto _ : state) {
    uint64_t sum = 0;
    for (VertexId u : order) {
      for (VertexId v : adjacency[u]) sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(2 * graph.NumEdges()));
  state.counters["graph_mem_bytes"] = benchmark::Counter(
      static_cast<double>(LegacyAdjacencyBytes(adjacency)));
  state.counters["peak_rss_mb"] = benchmark::Counter(PeakRssMegabytes());
}
BENCHMARK(BM_NeighborScanShuffledVectorOfVectors);

void BM_NeighborScanVectorOfVectors(benchmark::State& state) {
  const Graph& graph = BigScanGraph();
  const auto adjacency = VectorOfVectorsAdjacency(graph);
  const VertexId n = static_cast<VertexId>(graph.NumVertices());
  for (auto _ : state) {
    uint64_t sum = 0;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : adjacency[u]) sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(2 * graph.NumEdges()));
  state.counters["graph_mem_bytes"] = benchmark::Counter(
      static_cast<double>(LegacyAdjacencyBytes(adjacency)));
  state.counters["peak_rss_mb"] = benchmark::Counter(PeakRssMegabytes());
}
BENCHMARK(BM_NeighborScanVectorOfVectors);

void BM_EquitableRefinement(benchmark::State& state) {
  const Graph& graph = HepthGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EquitablePartition(graph, RefinementOptions{}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.NumVertices()));
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_EquitableRefinement);

void BM_EquitableRefinementBig(benchmark::State& state) {
  const Graph& graph = BigRefineGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EquitablePartition(graph, RefinementOptions{}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.NumVertices()));
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_EquitableRefinementBig);

// RefineAll on the 200k-vertex (and, BigScan, the 1M-vertex) graph.
// Refinement is sequential; the rows keep their historical names and /1
// argument so they can be followed across artifacts.
void RefineAllWithThreads(benchmark::State& state, const Graph& graph) {
  ExecutionContext context;
  Refiner refiner(graph, &context);
  for (auto _ : state) {
    OrderedPartition partition(graph.NumVertices(), {});
    benchmark::DoNotOptimize(refiner.RefineAll(partition));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.NumVertices()));
  state.counters["cells_split"] = benchmark::Counter(
      static_cast<double>(context.stats().cells_split),
      benchmark::Counter::kAvgIterations);
  AttachMemoryCounters(state, graph);
}

void BM_RefineAllThreads(benchmark::State& state) {
  RefineAllWithThreads(state, BigRefineGraph());
}
BENCHMARK(BM_RefineAllThreads)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RefineAllThreadsBigScan(benchmark::State& state) {
  RefineAllWithThreads(state, BigScanGraph());
}
BENCHMARK(BM_RefineAllThreadsBigScan)
    ->Arg(1)
    ->Iterations(1)  // Seconds-scale per pass on the 1M-vertex graph.
    ->Unit(benchmark::kMillisecond);

void BM_AutomorphismSearchEnron(benchmark::State& state) {
  const Graph& graph = EnronGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeAutomorphismPartition(graph, {}, nullptr));
  }
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_AutomorphismSearchEnron);

void BM_AutomorphismSearchHepth(benchmark::State& state) {
  const Graph& graph = HepthGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeAutomorphismPartition(graph, {}, nullptr));
  }
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_AutomorphismSearchHepth);

// One iteration: the search without the twin quotient took about 2 min.
void BM_AutomorphismSearchHepthRelease(benchmark::State& state) {
  const Graph& graph = HepthReleaseGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeAutomorphismPartition(graph, {}, nullptr));
  }
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_AutomorphismSearchHepthRelease)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_AutomorphismSearchNetTrace(benchmark::State& state) {
  const Graph& graph = NetTraceGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeAutomorphismPartition(graph, {}, nullptr));
  }
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_AutomorphismSearchNetTrace)->Unit(benchmark::kMillisecond);

void BM_AutomorphismSearchRandom(benchmark::State& state) {
  Rng rng(1);
  const Graph graph =
      ErdosRenyiGnm(state.range(0), 2 * state.range(0), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeAutomorphismPartition(graph, {}, nullptr));
  }
}
BENCHMARK(BM_AutomorphismSearchRandom)->Arg(256)->Arg(1024)->Arg(4096);

void BM_AnonymizeHepth(benchmark::State& state) {
  const Graph& graph = HepthGraph();
  const VertexPartition& orbits = HepthOrbits();
  AnonymizationOptions options;
  options.k = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto result = AnonymizeWithPartition(graph, orbits, options);
    benchmark::DoNotOptimize(result);
  }
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_AnonymizeHepth)->Arg(2)->Arg(5)->Arg(10);

// End to end: orbit computation + orbit copying + freeze, the full publish
// pipeline a data owner runs per release.
void BM_AnonymizeEndToEndHepth(benchmark::State& state) {
  const Graph& graph = HepthGraph();
  ExecutionContext context;  // Sequential policy; stats sink for the sweep.
  AnonymizationOptions options;
  options.k = static_cast<uint32_t>(state.range(0));
  options.context = &context;
  size_t released_mem = 0;
  for (auto _ : state) {
    auto result = Anonymize(graph, options);
    KSYM_CHECK(result.ok());
    released_mem = result->graph.MemoryBytes();
    benchmark::DoNotOptimize(result);
  }
  state.counters["released_graph_mem_bytes"] =
      benchmark::Counter(static_cast<double>(released_mem));
  // The pipeline's own cost accounting (per iteration): where the time
  // went and how much refinement work the partition phase did.
  const RefinementStats& stats = context.stats();
  state.counters["refine_calls"] = benchmark::Counter(
      static_cast<double>(stats.refine_calls),
      benchmark::Counter::kAvgIterations);
  state.counters["cells_split"] = benchmark::Counter(
      static_cast<double>(stats.cells_split),
      benchmark::Counter::kAvgIterations);
  state.counters["partition_ms"] = benchmark::Counter(
      stats.partition_seconds * 1e3, benchmark::Counter::kAvgIterations);
  state.counters["refine_ms"] = benchmark::Counter(
      stats.refine_seconds * 1e3, benchmark::Counter::kAvgIterations);
  state.counters["copy_ms"] = benchmark::Counter(
      stats.copy_seconds * 1e3, benchmark::Counter::kAvgIterations);
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_AnonymizeEndToEndHepth)->Arg(2)->Arg(5);

// The release_tdv input: a 30k-vertex power-law graph (gamma = 2.1, degrees
// drawn from the truncated Pareto tail, max 300, configuration model).
const Graph& PowerLaw30kGraph() {
  static const Graph* graph = [] {
    Rng rng(7);
    std::vector<size_t> degrees(30000);
    size_t sum = 0;
    for (size_t& d : degrees) {
      const double x = std::pow(1.0 - rng.NextDouble(), -1.0 / (2.1 - 1.0));
      d = std::clamp<size_t>(static_cast<size_t>(x), 1, 300);
      sum += d;
    }
    if (sum % 2 == 1) ++degrees[0];
    auto built = ConfigurationModel(degrees, rng);
    KSYM_CHECK(built.ok());
    return new Graph(std::move(built).value());
  }();
  return *graph;
}

// TDV of that graph, refinement and cell read-out: the partition step of
// the in-memory publish.
void BM_TdvPowerLaw30k(benchmark::State& state) {
  const Graph& graph = PowerLaw30kGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeTotalDegreePartition(graph, nullptr));
  }
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_TdvPowerLaw30k)->Unit(benchmark::kMillisecond);

// That graph anonymized to k = 5 from its TDV partition: the copy-and-emit
// step of the in-memory publish.
void BM_AnonymizeTdvPowerLaw30k(benchmark::State& state) {
  const Graph& graph = PowerLaw30kGraph();
  const VertexPartition tdv = ComputeTotalDegreePartition(graph, nullptr);
  AnonymizationOptions options;
  options.k = 5;
  options.use_total_degree_partition = true;
  size_t released_edges = 0;
  for (auto _ : state) {
    auto result = AnonymizeWithPartition(graph, tdv, options);
    KSYM_CHECK(result.ok());
    released_edges = result->graph.NumEdges();
    benchmark::DoNotOptimize(result);
  }
  state.counters["released_edges"] =
      benchmark::Counter(static_cast<double>(released_edges));
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_AnonymizeTdvPowerLaw30k)->Unit(benchmark::kMillisecond);

void BM_BackboneDetectionHepth(benchmark::State& state) {
  AnonymizationOptions options;
  options.k = 5;
  auto release = AnonymizeWithPartition(HepthGraph(), HepthOrbits(), options);
  KSYM_CHECK(release.ok());
  ExecutionContext context;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeBackbone(release->graph, release->partition, &context));
  }
  state.counters["backbone_ms"] = benchmark::Counter(
      context.stats().backbone_seconds * 1e3,
      benchmark::Counter::kAvgIterations);
  AttachMemoryCounters(state, release->graph);
}
BENCHMARK(BM_BackboneDetectionHepth);

// Section 5.1's vertex-minimal anonymization of Hepth from its exact
// Orb(G) at k = 5: Algorithm 1 with the one-component unit chooser.
void BM_MinimalAnonymizeHepth(benchmark::State& state) {
  AnonymizationOptions options;
  options.k = 5;
  for (auto _ : state) {
    auto release =
        AnonymizeMinimalVertices(HepthGraph(), HepthOrbits(), options);
    KSYM_CHECK(release.ok());
    benchmark::DoNotOptimize(release);
  }
  AttachMemoryCounters(state, HepthGraph());
}
BENCHMARK(BM_MinimalAnonymizeHepth);

void BM_ApproxSampleHepth(benchmark::State& state) {
  AnonymizationOptions options;
  options.k = 5;
  auto release = AnonymizeWithPartition(HepthGraph(), HepthOrbits(), options);
  KSYM_CHECK(release.ok());
  Rng rng(7);
  for (auto _ : state) {
    auto sample = ApproximateBackboneSample(
        release->graph, release->partition, release->original_vertices, rng);
    benchmark::DoNotOptimize(sample);
  }
  AttachMemoryCounters(state, release->graph);
}
BENCHMARK(BM_ApproxSampleHepth);

// The quota step's largest case among the stand-ins: the Net_trace TDV
// k = 5 release hands out 3,104 quota draws over 1,109 cells.
void BM_ApproxSampleNetTrace(benchmark::State& state) {
  AnonymizationOptions options;
  options.k = 5;
  options.use_total_degree_partition = true;
  auto release = Anonymize(NetTraceGraph(), options);
  KSYM_CHECK(release.ok());
  Rng rng(7);
  for (auto _ : state) {
    auto sample = ApproximateBackboneSample(
        release->graph, release->partition, release->original_vertices, rng);
    benchmark::DoNotOptimize(sample);
  }
  AttachMemoryCounters(state, release->graph);
}
BENCHMARK(BM_ApproxSampleNetTrace);

void BM_ExactSampleHepth(benchmark::State& state) {
  AnonymizationOptions options;
  options.k = 5;
  auto release = AnonymizeWithPartition(HepthGraph(), HepthOrbits(), options);
  KSYM_CHECK(release.ok());
  Rng rng(7);
  for (auto _ : state) {
    auto sample = ExactBackboneSample(release->graph, release->partition,
                                      release->original_vertices, rng);
    benchmark::DoNotOptimize(sample);
  }
  AttachMemoryCounters(state, release->graph);
}
BENCHMARK(BM_ExactSampleHepth);

// An exact batch as `ksym_sample --exact --samples 20` draws it, on one
// thread.
void BM_ExactBatchHepth(benchmark::State& state) {
  AnonymizationOptions options;
  options.k = 5;
  auto release = AnonymizeWithPartition(HepthGraph(), HepthOrbits(), options);
  KSYM_CHECK(release.ok());
  BatchSampleOptions batch;
  batch.num_samples = 20;
  batch.target_vertices = release->original_vertices;
  batch.exact = true;
  const Rng rng(7);
  for (auto _ : state) {
    auto samples = DrawSamples(release->graph, release->partition, batch, rng);
    KSYM_CHECK(samples.ok());
    benchmark::DoNotOptimize(samples);
  }
  AttachMemoryCounters(state, release->graph);
}
BENCHMARK(BM_ExactBatchHepth)->Unit(benchmark::kMillisecond);

// --- Out-of-core anonymization: the full manifest-in →
// anonymized-shard-set-out pipeline (degree pass, sharded TDV refinement,
// delta-based orbit copy, streamed release emission) on the 200k-vertex
// graph in 8 vertex-range shards, against the in-memory Anonymize +
// WriteReleaseCsrFile baseline. Both produce byte-identical releases.

/// Writes the 8-shard set once per process and returns its manifest path.
const std::string& BenchShardManifest() {
  static const std::string* path = [] {
    const std::string prefix =
        std::filesystem::temp_directory_path().string() + "/ksym_bench_200k";
    PartitionOptions options;
    options.num_shards = 8;
    KSYM_CHECK(Partitioner::Split(BigRefineGraph(), {}, options, prefix).ok());
    return new std::string(prefix + ".manifest");
  }();
  return *path;
}

void BM_ShardedAnonymize(benchmark::State& state) {
  const auto sharded = ShardedGraph::Open(BenchShardManifest());
  KSYM_CHECK(sharded.ok());
  const std::string out_prefix =
      std::filesystem::temp_directory_path().string() + "/ksym_bench_sa_out";
  ShardedAnonymizationOptions options;
  options.k = 3;
  for (auto _ : state) {
    auto result = AnonymizeSharded(*sharded, options, out_prefix);
    KSYM_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(sharded->NumVertices()));
  state.counters["mapped_bytes"] = benchmark::Counter(
      static_cast<double>(sharded->stats().resident_bytes));
  state.counters["peak_rss_mb"] = benchmark::Counter(PeakRssMegabytes());
}
BENCHMARK(BM_ShardedAnonymize)->Unit(benchmark::kMillisecond);

void BM_ShardedAnonymizeInMemoryBaseline(benchmark::State& state) {
  const Graph& graph = BigRefineGraph();
  const std::string out_path =
      std::filesystem::temp_directory_path().string() + "/ksym_bench_sa_ref";
  AnonymizationOptions options;
  options.k = 3;
  options.use_total_degree_partition = true;
  for (auto _ : state) {
    auto result = Anonymize(graph, options);
    KSYM_CHECK(result.ok());
    KSYM_CHECK(WriteReleaseCsrFile(MakeReleaseTriple(*result), out_path).ok());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.NumVertices()));
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_ShardedAnonymizeInMemoryBaseline)->Unit(benchmark::kMillisecond);

// --- The utility measures of Section 4.3, each one sequential row: their
// loops run plainly at any thread count (DESIGN.md §8).

void BM_Clustering(benchmark::State& state) {
  const Graph& graph = BigRefineGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ClusteringValues(graph));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.NumVertices()));
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_Clustering)->Unit(benchmark::kMillisecond);

void BM_SampledPathLengths(benchmark::State& state) {
  const Graph& graph = BigRefineGraph();
  for (auto _ : state) {
    Rng rng(13);  // Fresh stream per iteration: identical work each pass.
    benchmark::DoNotOptimize(SampledPathLengths(graph, 200, rng));
  }
  state.SetItemsProcessed(state.iterations() * 200);
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_SampledPathLengths)->Unit(benchmark::kMillisecond);

void BM_Resilience(benchmark::State& state) {
  const Graph& graph = HepthGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ResilienceCurve(graph, 21, 0.6));
  }
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_Resilience)->Unit(benchmark::kMillisecond);

// --- Thread-scaling sweeps of the three parallel kernels. Each sweep's
// Arg(1) row is the sequential baseline (no pool is created), so speedup =
// row1 / rowN; every row computes bit-identical results.

void BM_BatchSampleThreads(benchmark::State& state) {
  AnonymizationOptions options;
  options.k = 5;
  auto release = AnonymizeWithPartition(HepthGraph(), HepthOrbits(), options);
  KSYM_CHECK(release.ok());
  ExecutionContext context(static_cast<uint32_t>(state.range(0)));
  BatchSampleOptions batch;
  batch.num_samples = 8;
  batch.target_vertices = release->original_vertices;
  batch.context = &context;
  const Rng rng(7);
  for (auto _ : state) {
    auto samples = DrawSamples(release->graph, release->partition, batch, rng);
    KSYM_CHECK(samples.ok());
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.num_samples));
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(context.threads()));
  AttachMemoryCounters(state, release->graph);
}
BENCHMARK(BM_BatchSampleThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void NeighborhoodMeasureThreadsBench(benchmark::State& state,
                                     const Graph& graph) {
  ExecutionContext context(static_cast<uint32_t>(state.range(0)));
  const StructuralMeasure measure = NeighborhoodMeasure(&context);
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure.eval(graph));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.NumVertices()));
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(context.threads()));
  AttachMemoryCounters(state, graph);
}

void BM_NeighborhoodMeasureThreads(benchmark::State& state) {
  NeighborhoodMeasureThreadsBench(state, EnronGraph());
}
BENCHMARK(BM_NeighborhoodMeasureThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_NeighborhoodMeasureThreadsHepth(benchmark::State& state) {
  NeighborhoodMeasureThreadsBench(state, HepthGraph());
}
BENCHMARK(BM_NeighborhoodMeasureThreadsHepth)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Fig. 2's neighborhood measure, one thread: one key per ego net.
void NeighborhoodMeasureBench(benchmark::State& state, const Graph& graph) {
  const StructuralMeasure measure = NeighborhoodMeasure(nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure.eval(graph));
  }
  AttachMemoryCounters(state, graph);
}

// The Net_trace stand-in: its hub ego nets are mostly twin leaves.
void BM_NeighborhoodMeasureNetTrace(benchmark::State& state) {
  NeighborhoodMeasureBench(state, NetTraceGraph());
}
BENCHMARK(BM_NeighborhoodMeasureNetTrace)->Unit(benchmark::kMillisecond);

void BM_NeighborhoodMeasureHepth(benchmark::State& state) {
  NeighborhoodMeasureBench(state, HepthGraph());
}
BENCHMARK(BM_NeighborhoodMeasureHepth)->Unit(benchmark::kMillisecond);

// A guard: 2,986 of the 3,000 ego nets of WS(3000, 4, 0.1) have a
// neighbour-graph component of four or more vertices, so they still take
// one canonical search each.
void BM_NeighborhoodMeasureWattsStrogatz(benchmark::State& state) {
  static const Graph* graph = [] {
    Rng rng(11);
    return new Graph(WattsStrogatz(3000, 4, 0.1, rng));
  }();
  NeighborhoodMeasureBench(state, *graph);
}
BENCHMARK(BM_NeighborhoodMeasureWattsStrogatz)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// The PR 9 adversary family (DESIGN.md §14): sybil-pattern recovery, the
// (k,ℓ)-adjacency sweep and the community measure against one shared
// anonymized release (built once; the anonymization itself is BM_Anonymize*
// territory). The thread sweep records how the anchor-sharded embedding
// search scales; outputs are bit-identical across the sweep, so the rows
// measure the same work. The passive measures are sequential.

struct AttackBenchData {
  Graph release;
  SybilPlan plan;
  VertexPartition orbits;
};

const AttackBenchData& AttackRelease() {
  static const AttackBenchData* data = [] {
    Rng rng(9);
    const Graph host = BarabasiAlbert(128, 3, rng);
    SybilPlantOptions plant_options;
    plant_options.num_sybils = 6;
    plant_options.num_targets = 3;
    plant_options.seed = 7;
    auto plant = PlantSybils(host, plant_options);
    KSYM_CHECK(plant.ok());
    AnonymizationOptions anon;
    anon.k = 3;
    auto release = Anonymize(plant->graph, anon);
    KSYM_CHECK(release.ok());
    auto* d = new AttackBenchData{std::move(release->graph),
                                  std::move(plant->plan), {}};
    d->orbits = ComputeAutomorphismPartition(d->release, {}, nullptr);
    return d;
  }();
  return *data;
}

void SybilRecoveryBench(benchmark::State& state, const Graph& release,
                        const SybilPlan& plan) {
  ExecutionContext context(static_cast<uint32_t>(state.range(0)));
  SybilRecoveryOptions options;
  options.context = &context;
  size_t embeddings = 0;
  for (auto _ : state) {
    const SybilAttackReport report = RecoverSybils(release, plan, options);
    embeddings = report.embeddings_found;
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(release.NumVertices()));
  state.counters["embeddings"] =
      benchmark::Counter(static_cast<double>(embeddings));
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(context.threads()));
  AttachMemoryCounters(state, release);
}

void BM_AttackSybilRecoveryThreads(benchmark::State& state) {
  const AttackBenchData& data = AttackRelease();
  SybilRecoveryBench(state, data.release, data.plan);
}
BENCHMARK(BM_AttackSybilRecoveryThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The attack paper_eval and ksym_attack run by default: the Enron stand-in
// with 4 sybils and 3 targets (seed 4), anonymized to k = 5. Its 1,217,120
// embeddings share 142,530 three-vertex prefixes, so this row is where the
// per-prefix settle shows; the BA(128, 3) row above spends its time in the
// inner levels.
void BM_AttackSybilRecoveryEnron(benchmark::State& state) {
  static const AttackBenchData* data = [] {
    SybilPlantOptions plant_options;
    plant_options.num_sybils = 4;
    plant_options.num_targets = 3;
    plant_options.seed = 4;
    auto plant = PlantSybils(EnronGraph(), plant_options);
    KSYM_CHECK(plant.ok());
    AnonymizationOptions anon;
    anon.k = 5;
    auto release = Anonymize(plant->graph, anon);
    KSYM_CHECK(release.ok());
    return new AttackBenchData{std::move(release->graph),
                               std::move(plant->plan), {}};
  }();
  SybilRecoveryBench(state, data->release, data->plan);
}
BENCHMARK(BM_AttackSybilRecoveryEnron)
    ->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Many targets: 12 sybils fingerprint all 4,000 vertices of BA(4000, 2),
// and recovery runs on the exact k = 2 release at one thread. The default
// budget truncates the search at 516 embeddings; a prefix's scanned lists
// hold hundreds of bases, so this row is where one walk per position
// decides many targets at once.
void BM_AttackSybilRecoveryManyTargets(benchmark::State& state) {
  static const AttackBenchData* data = [] {
    Rng rng(1);
    const Graph host = BarabasiAlbert(4000, 2, rng);
    SybilPlantOptions plant_options;
    plant_options.num_sybils = 12;
    plant_options.num_targets = 4000;
    plant_options.seed = 1;
    auto plant = PlantSybils(host, plant_options);
    KSYM_CHECK(plant.ok());
    AnonymizationOptions anon;
    anon.k = 2;
    auto release = Anonymize(plant->graph, anon);
    KSYM_CHECK(release.ok());
    return new AttackBenchData{std::move(release->graph),
                               std::move(plant->plan), {}};
  }();
  SybilRecoveryBench(state, data->release, data->plan);
}
BENCHMARK(BM_AttackSybilRecoveryManyTargets)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_AttackAdjacencySweep(benchmark::State& state) {
  const Graph& release = AttackRelease().release;
  const StructuralMeasure measure =
      AdjacencyMeasure(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionByMeasure(release, measure));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(release.NumVertices()));
  AttachMemoryCounters(state, release);
}
BENCHMARK(BM_AttackAdjacencySweep)->Arg(1)->Arg(2)->Arg(3);

void BM_AttackCommunityMeasure(benchmark::State& state) {
  const Graph& release = AttackRelease().release;
  const StructuralMeasure measure =
      CommunityMeasure(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionByMeasure(release, measure));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(release.NumVertices()));
  AttachMemoryCounters(state, release);
}
BENCHMARK(BM_AttackCommunityMeasure)->Arg(1)->Arg(4)->Arg(8);

void BM_AttackPassiveHarness(benchmark::State& state) {
  const AttackBenchData& data = AttackRelease();
  AttackHarnessOptions options;
  options.k = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluatePassiveAttacks(data.release, data.orbits, options));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.release.NumVertices()));
  AttachMemoryCounters(state, data.release);
}
BENCHMARK(BM_AttackPassiveHarness)->Unit(benchmark::kMillisecond);

// Key interning (common/intern.h) inside the passive measures: the
// neighbour-degree measure on BA(200k, 4), 200k vector keys, and the five
// measures an audit runs, on Hepth.
void BM_NeighborDegreeMeasure200k(benchmark::State& state) {
  const Graph& graph = BigRefineGraph();
  const StructuralMeasure measure = NeighborDegreeSequenceMeasure();
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure.eval(graph));
  }
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_NeighborDegreeMeasure200k)->Unit(benchmark::kMillisecond);

void BM_AuditMeasuresHepth(benchmark::State& state) {
  const Graph& graph = HepthGraph();
  const std::vector<StructuralMeasure> measures = {
      DegreeMeasure(), TriangleMeasure(), NeighborDegreeSequenceMeasure(),
      NeighborhoodMeasure(), CombinedMeasure()};
  for (auto _ : state) {
    for (const StructuralMeasure& measure : measures) {
      benchmark::DoNotOptimize(measure.eval(graph));
    }
  }
  AttachMemoryCounters(state, graph);
}
BENCHMARK(BM_AuditMeasuresHepth)->Unit(benchmark::kMillisecond);

// The audit request perfbench's serve_mixed sends: the Hepth stand-in as
// .ksymcsr, TDV, k = 5 (load, partition, and the five measures' report).
void BM_AuditHepth(benchmark::State& state) {
  serve::AuditRequest request;
  request.input = LoadFilesFor(HepthGraph(), "hepth").csr;
  request.k = 5;
  request.tdv = true;
  for (auto _ : state) {
    Result<serve::Response> response = serve::RunAudit(request);
    KSYM_CHECK(response.ok());
    benchmark::DoNotOptimize(response);
  }
  AttachMemoryCounters(state, HepthGraph());
}
BENCHMARK(BM_AuditHepth)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// The dynamic-graph subsystem (DESIGN.md §15): the CSR rebuild a commit
// pays, and the full TDV recompute the reanonymize after it pays.

struct DynBenchData {
  Graph base;
  dyn::EditBatch batch;                 // One valid 8-edit batch.
  Graph edited;                         // base + batch.
};

const DynBenchData& DynBench() {
  static const DynBenchData* data = [] {
    auto* d = new DynBenchData();
    Rng rng(0xD1);
    d->base = ErdosRenyiGnm(20000, 60000, rng);
    std::set<std::pair<VertexId, VertexId>> inserted;
    for (int i = 0; i < 8;) {
      const auto u = static_cast<VertexId>(rng.NextBounded(20000));
      const auto v = static_cast<VertexId>(rng.NextBounded(20000));
      if (u == v || d->base.HasEdge(u, v) ||
          !inserted.insert({std::min(u, v), std::max(u, v)}).second) {
        continue;
      }
      d->batch.Insert(u, v);
      ++i;
    }
    d->edited = dyn::ApplyEdits(d->base, d->batch).value();
    return d;
  }();
  return *data;
}

void BM_CommitRebuild(benchmark::State& state) {
  const DynBenchData& data = DynBench();
  for (auto _ : state) {
    Result<Graph> edited = dyn::ApplyEdits(data.base, data.batch);
    if (!edited.ok()) {
      state.SkipWithError(edited.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(edited);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.base.NumVertices()));
  AttachMemoryCounters(state, data.edited);
}
BENCHMARK(BM_CommitRebuild)->Unit(benchmark::kMillisecond);

// Refinement is sequential; the row keeps its historical /1 argument so it
// can be followed across artifacts.
void BM_FullRecomputeAfterEdits(benchmark::State& state) {
  const DynBenchData& data = DynBench();
  ExecutionContext context;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeTotalDegreePartition(data.edited, &context));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.base.NumVertices()));
  AttachMemoryCounters(state, data.edited);
}
BENCHMARK(BM_FullRecomputeAfterEdits)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ksym

#ifndef KSYM_BENCH_BUILD_TYPE
#define KSYM_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef KSYM_BENCHMARK_LIB_BUILD_TYPE
#define KSYM_BENCHMARK_LIB_BUILD_TYPE "unknown"
#endif

// Custom main: every run must name its JSON output, so no run can
// overwrite a checked-in BENCH_prN.json by accident.
int main(int argc, char** argv) {
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    std::fprintf(stderr,
                 "usage: %s --benchmark_out=<file.json> [benchmark flags]\n",
                 argv[0]);
    return 2;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Whether the thread sweeps ran on real cores: on a single-core container
  // the 2/4/8-thread rows measure scheduling overhead, not scaling.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) {
    std::fprintf(stderr,
                 "WARNING: hardware_concurrency=%u — thread-sweep rows above "
                 "1 thread measure scheduling overhead, NOT scaling; do not "
                 "compare them across machines\n",
                 hw);
  }
  benchmark::AddCustomContext("hardware_concurrency", std::to_string(hw));
  // Honest build provenance (bench/benchmarks.cmake probes the library):
  // the distro's google-benchmark is a debug build on some machines, and
  // BENCH_pr6.json recorded that silently. Now the artifact says so, and
  // the run complains out loud.
  benchmark::AddCustomContext("ksym_build_type", KSYM_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("benchmark_library_build_type",
                              KSYM_BENCHMARK_LIB_BUILD_TYPE);
  if (std::strcmp(KSYM_BENCHMARK_LIB_BUILD_TYPE, "release") != 0) {
    std::fprintf(stderr,
                 "WARNING: linked google-benchmark library_build_type=%s — "
                 "harness overheads are debug-sized; absolute times are "
                 "pessimistic\n",
                 KSYM_BENCHMARK_LIB_BUILD_TYPE);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
