// Figure 9: convergence of utility quality with the number of samples.
//
// For k = 5 and k = 10, draws up to 100 samples per network and reports the
// average K-S statistic between the original and the aggregated samples for
// the degree and shortest-path-length distributions, at increasing sample
// counts (1, 5, 10, ..., 100).
//
// Sample batches are drawn through DrawSamples (per-index Rng streams), so
// --threads N shards the drawing without changing any number in the
// output; the per-graph measurements run sequentially.
//
// Paper shape to reproduce: the statistic converges fast — 5-10 samples
// already reach (near-)steady utility quality.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "ksym/sampling.h"
#include "stats/aggregate.h"
#include "stats/distributions.h"

int main(int argc, char** argv) {
  using namespace ksym;
  const uint32_t threads = bench::ThreadsFlag(argc, argv);
  ExecutionContext context(threads);
  bench::PrintHeader(
      "Figure 9: average K-S statistic vs number of sampled graphs");
  std::printf("(threads = %u)\n", context.threads());
  Rng rng(322);
  constexpr size_t kMaxSamples = 100;
  constexpr size_t kPathPairs = 500;

  for (const auto& dataset : bench::PrepareAllDatasets()) {
    for (uint32_t k : {5u, 10u}) {
      const AnonymizationResult release = bench::Release(dataset, k);
      BatchSampleOptions batch;
      batch.num_samples = kMaxSamples;
      batch.target_vertices = release.original_vertices;
      batch.context = &context;
      auto samples = DrawSamples(release.graph, release.partition, batch,
                                 rng.Fork());
      KSYM_CHECK(samples.ok());

      Rng path_rng(777);
      auto degree_values = [](const Graph& g) { return DegreeValues(g); };
      auto path_values = [&path_rng](const Graph& g) {
        return SampledPathLengths(g, kPathPairs, path_rng);
      };

      std::printf("\n%s, k=%u (samples 1,9,17,...):\n", dataset.name.c_str(),
                  k);
      bench::PrintSeries("  degree (pooled K-S)",
                         PooledKsConvergence(dataset.graph, *samples,
                                             degree_values));
      bench::PrintSeries("  degree (mean K-S)",
                         MeanKsConvergence(dataset.graph, *samples,
                                           degree_values));
      bench::PrintSeries("  path length (pooled K-S)",
                         PooledKsConvergence(dataset.graph, *samples,
                                             path_values));
      bench::PrintSeries("  path length (mean K-S)",
                         MeanKsConvergence(dataset.graph, *samples,
                                           path_values));
    }
  }
  std::printf(
      "\nExpected shape (paper Fig. 9): every series flattens quickly; 5-10\n"
      "samples already sit near the steady-state value.\n");
  return 0;
}
