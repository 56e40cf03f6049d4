#include "stats/distributions.h"

#include <algorithm>
#include <cmath>

#include "graph/algorithms.h"

namespace ksym {

std::vector<double> DegreeValues(const Graph& graph,
                                 const ExecutionContext* /*context*/) {
  std::vector<double> values(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    values[v] = static_cast<double>(graph.Degree(v));
  }
  return values;
}

std::vector<double> ClusteringValues(const Graph& graph,
                                     const ExecutionContext* /*context*/) {
  return ClusteringCoefficients(graph);
}

std::vector<double> SampledPathLengths(const Graph& graph, size_t num_pairs,
                                       Rng& rng,
                                       const ExecutionContext* /*context*/) {
  std::vector<double> lengths;
  const size_t n = graph.NumVertices();
  if (n < 2 || num_pairs == 0) return lengths;
  lengths.reserve(num_pairs);
  PairDistance distance(graph);
  const size_t max_attempts = num_pairs * 20;
  for (size_t attempt = 0;
       attempt < max_attempts && lengths.size() < num_pairs; ++attempt) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v) continue;
    const int64_t d = distance(u, v);
    if (d >= 0) lengths.push_back(static_cast<double>(d));
  }
  return lengths;
}

std::vector<size_t> Histogram(const std::vector<double>& values) {
  std::vector<size_t> histogram;
  for (double value : values) {
    const size_t bin = static_cast<size_t>(std::max(0.0, std::floor(value)));
    if (bin >= histogram.size()) histogram.resize(bin + 1, 0);
    ++histogram[bin];
  }
  return histogram;
}

std::vector<size_t> BinnedHistogram(const std::vector<double>& values,
                                    double lo, double hi, size_t bins) {
  KSYM_CHECK(bins > 0 && hi > lo);
  std::vector<size_t> histogram(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double value : values) {
    double clamped = std::min(std::max(value, lo), hi);
    size_t bin = static_cast<size_t>((clamped - lo) / width);
    if (bin >= bins) bin = bins - 1;
    ++histogram[bin];
  }
  return histogram;
}

}  // namespace ksym
