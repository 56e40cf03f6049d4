// Statistical properties of networks — the four utility measures of
// Section 4.3: degree distribution, shortest-path-length distribution over
// sampled pairs, transitivity (clustering-coefficient distribution), and
// (in resilience.h) network resilience.
//
// Every measure takes an optional ExecutionContext; the parallel path is
// bit-identical to the sequential one for any thread count (see DESIGN.md
// §8 on the deterministic parallel evaluation engine). Path-length
// sampling has no parallel path.

#ifndef KSYM_STATS_DISTRIBUTIONS_H_
#define KSYM_STATS_DISTRIBUTIONS_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/graph.h"

namespace ksym {

/// Per-vertex degrees as an empirical sample (for K-S comparisons and
/// histograms).
std::vector<double> DegreeValues(const Graph& graph,
                                 const ExecutionContext* context = nullptr);

/// Per-vertex local clustering coefficients.
std::vector<double> ClusteringValues(const Graph& graph,
                                     const ExecutionContext* context = nullptr);

/// Shortest-path lengths between `num_pairs` uniformly sampled distinct
/// vertex pairs, following the paper's protocol (500 pairs). Each attempt
/// draws an ordered pair with two Rng draws; self-pairs and pairs in
/// different components are skipped, and sampling stops early if connected
/// pairs are too rare (after 20x oversampling attempts).
///
/// Each drawn pair costs one exact bidirectional search (PairDistance), so
/// a pair touches only the two balls around its ends, not the whole graph.
/// The search runs sequentially at any thread count; `context` is accepted
/// and ignored. The accepted lengths depend only on the Rng stream.
std::vector<double> SampledPathLengths(const Graph& graph, size_t num_pairs,
                                       Rng& rng,
                                       const ExecutionContext* context = nullptr);

/// Histogram of values rounded down to integer bins; index = bin.
std::vector<size_t> Histogram(const std::vector<double>& values);

/// Histogram of values over [lo, hi] in `bins` equal-width bins (values
/// outside are clamped); used for clustering coefficients in [0, 1].
std::vector<size_t> BinnedHistogram(const std::vector<double>& values,
                                    double lo, double hi, size_t bins);

}  // namespace ksym

#endif  // KSYM_STATS_DISTRIBUTIONS_H_
