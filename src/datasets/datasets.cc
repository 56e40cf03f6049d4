#include "datasets/datasets.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common/rng.h"
#include "graph/generators.h"

namespace ksym {
namespace {

// Samples n iid values from a truncated discrete power law
// P(d) proportional to d^-gamma on [min_d, max_d].
std::vector<size_t> PowerLawSequence(size_t n, double gamma, size_t min_d,
                                     size_t max_d, Rng& rng) {
  std::vector<double> weights;
  weights.reserve(max_d - min_d + 1);
  for (size_t d = min_d; d <= max_d; ++d) {
    weights.push_back(std::pow(static_cast<double>(d), -gamma));
  }
  std::vector<size_t> seq(n);
  for (size_t i = 0; i < n; ++i) {
    seq[i] = min_d + rng.NextDiscrete(weights);
  }
  return seq;
}

// Knuth's Poisson sampler (fine for small lambda).
size_t SamplePoisson(double lambda, Rng& rng) {
  const double limit = std::exp(-lambda);
  double product = 1.0;
  size_t count = 0;
  do {
    ++count;
    product *= rng.NextDouble();
  } while (product > limit);
  return count - 1;
}

// Nudges `seq` (entries in [first, seq.size())) until its total equals
// `target_sum`. Increments avoid entries at `protect_low` when possible
// (so e.g. the count of degree-1 vertices — the median — is preserved) and
// never exceed max_d; decrements only touch entries > protect_low + 1 and
// never go below min_d.
void AdjustToSum(std::vector<size_t>& seq, size_t first, uint64_t target_sum,
                 size_t min_d, size_t max_d, size_t protect_low, Rng& rng) {
  uint64_t sum = 0;
  for (size_t d : seq) sum += d;
  size_t guard = 0;
  const size_t max_steps = 50 * (seq.size() + 1) * (max_d + 1);
  while (sum != target_sum && guard++ < max_steps) {
    const size_t i =
        first + rng.NextBounded(seq.size() - first);
    if (sum < target_sum) {
      if (seq[i] == protect_low && rng.NextDouble() < 0.9) continue;
      if (seq[i] < max_d) {
        ++seq[i];
        ++sum;
      }
    } else {
      if (seq[i] > protect_low + 1 && seq[i] > min_d) {
        --seq[i];
        --sum;
      }
    }
  }
  // Parity safety: the configuration model needs an even stub count.
  if (sum % 2 != 0) {
    for (size_t i = first; i < seq.size(); ++i) {
      if (seq[i] < max_d) {
        ++seq[i];
        break;
      }
    }
  }
}

// Degree-preserving double-edge swaps accepted only when they increase the
// triangle count. Configuration-model graphs are locally tree-like, but the
// real networks the paper uses (email, collaboration) have substantial
// clustering, which powers the triangle component of the combined measure
// (Figure 2); this pass restores that property without touching Table 1's
// degree statistics.
Graph BoostClustering(const Graph& graph, size_t attempts, Rng& rng) {
  const size_t n = graph.NumVertices();
  std::vector<std::set<VertexId>> adj(n);
  for (const auto& [u, v] : graph.Edges()) {
    adj[u].insert(v);
    adj[v].insert(u);
  }
  auto common = [&adj](VertexId a, VertexId b) {
    const auto& small = adj[a].size() <= adj[b].size() ? adj[a] : adj[b];
    const auto& large = adj[a].size() <= adj[b].size() ? adj[b] : adj[a];
    size_t count = 0;
    for (VertexId w : small) count += large.count(w);
    return count;
  };
  auto random_neighbor = [&adj, &rng](VertexId v) {
    auto it = adj[v].begin();
    std::advance(it, rng.NextBounded(adj[v].size()));
    return *it;
  };

  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    // Close a random open wedge a - v - b with the swap
    // (a,x) + (b,y) -> (a,b) + (x,y), accepted when triangles increase.
    const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (adj[v].size() < 2) continue;
    const VertexId a = random_neighbor(v);
    const VertexId b = random_neighbor(v);
    if (a == b || adj[a].count(b)) continue;
    const VertexId x = random_neighbor(a);
    const VertexId y = random_neighbor(b);
    if (x == v || y == v || x == b || y == a || x == y) continue;
    if (adj[x].count(y)) continue;
    // Net triangle change of removing (a,x),(b,y), adding (a,b),(x,y).
    const int64_t gained = static_cast<int64_t>(common(a, b)) +
                           static_cast<int64_t>(common(x, y));
    const int64_t lost = static_cast<int64_t>(common(a, x)) +
                         static_cast<int64_t>(common(b, y));
    if (gained <= lost) continue;
    adj[a].erase(x);
    adj[x].erase(a);
    adj[b].erase(y);
    adj[y].erase(b);
    adj[a].insert(b);
    adj[b].insert(a);
    adj[x].insert(y);
    adj[y].insert(x);
  }

  GraphBuilder builder(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId w : adj[u]) {
      if (u < w) builder.AddEdge(u, w);
    }
  }
  return builder.Build();
}

// Degree-preserving rewire that co-attaches pendant vertices: given
// pendants u-a and v-b (a != b) and an edge a-x, rewrite to u-a, v-a, b-x.
// All degrees are unchanged, and {u, v} becomes a non-trivial orbit. Real
// social networks owe most of their symmetry to exactly this pattern
// (duplicate leaves on a shared neighbour); configuration-model graphs are
// almost surely rigid without it.
Graph PairPendants(const Graph& graph, size_t pairs, Rng& rng) {
  std::vector<std::pair<VertexId, VertexId>> edges = graph.Edges();
  // Collect pendants with their unique neighbour.
  std::vector<VertexId> pendants;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (graph.Degree(v) == 1) pendants.push_back(v);
  }
  rng.Shuffle(pendants.begin(), pendants.end());

  // Rewires delete edges, so work on an edge set and rebuild at the end.
  std::set<std::pair<VertexId, VertexId>> edge_set(edges.begin(), edges.end());
  auto norm = [](VertexId a, VertexId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  };
  auto degree_of = [&edge_set, &graph](VertexId v) {
    // Degrees only change transiently inside a successful rewire, which
    // restores them; original degrees remain valid.
    (void)edge_set;
    return graph.Degree(v);
  };

  size_t done = 0;
  for (size_t i = 0; i + 1 < pendants.size() && done < pairs; i += 2) {
    const VertexId u = pendants[i];
    const VertexId v = pendants[i + 1];
    // Unique neighbours.
    VertexId a = kInvalidVertex;
    VertexId b = kInvalidVertex;
    for (const auto& [x, y] : edge_set) {
      if (x == u) a = y;
      if (y == u) a = x;
      if (x == v) b = y;
      if (y == v) b = x;
    }
    if (a == kInvalidVertex || b == kInvalidVertex || a == b) continue;
    if (a == v || b == u) continue;
    if (degree_of(a) < 2) continue;
    // Find an edge a-x with x usable as b's replacement neighbour.
    VertexId x = kInvalidVertex;
    for (const auto& [p, q] : edge_set) {
      VertexId candidate = kInvalidVertex;
      if (p == a) candidate = q;
      if (q == a) candidate = p;
      if (candidate == kInvalidVertex) continue;
      if (candidate == u || candidate == v || candidate == b) continue;
      if (edge_set.count(norm(b, candidate))) continue;
      x = candidate;
      break;
    }
    if (x == kInvalidVertex) continue;
    edge_set.erase(norm(v, b));
    edge_set.erase(norm(a, x));
    edge_set.insert(norm(v, a));
    edge_set.insert(norm(b, x));
    ++done;
  }

  GraphBuilder builder(graph.NumVertices());
  for (const auto& [p, q] : edge_set) builder.AddEdge(p, q);
  return builder.Build();
}

Graph RealizeSequence(std::vector<size_t> seq, Rng& rng) {
  uint64_t sum = 0;
  for (size_t d : seq) sum += d;
  if (sum % 2 != 0) ++seq.back();
  auto result = ConfigurationModel(seq, rng);
  KSYM_CHECK(result.ok());
  return std::move(result).value();
}

}  // namespace

Graph MakeEnronLike(uint64_t seed) {
  Rng rng(seed ^ 0xE17C0111ull);
  const size_t n = 111;
  const uint64_t target = 2 * 287;
  std::vector<size_t> seq(n);
  seq[0] = 20;  // Pin the paper's maximum degree.
  for (size_t i = 1; i < n; ++i) {
    seq[i] = std::clamp<size_t>(SamplePoisson(5.0, rng), 1, 19);
  }
  AdjustToSum(seq, /*first=*/1, target, /*min_d=*/1, /*max_d=*/19,
              /*protect_low=*/0, rng);
  // Real email networks cluster heavily and are not rigid: boost triangles
  // (degree-preserving), then plant a handful of duplicate pendants.
  Graph graph = BoostClustering(RealizeSequence(std::move(seq), rng),
                                /*attempts=*/4000, rng);
  return PairPendants(graph, 5, rng);
}

Graph MakeHepthLike(uint64_t seed) {
  Rng rng(seed ^ 0x4E97411ull);
  const size_t n = 2510;
  const uint64_t target = 2 * 4737;
  std::vector<size_t> seq = PowerLawSequence(n, 1.4, 1, 30, rng);
  seq[0] = 36;  // Pin the paper's maximum degree.
  // Decrements stay above 2 so the median stays at the paper's value of 2.
  AdjustToSum(seq, /*first=*/1, target, /*min_d=*/1, /*max_d=*/30,
              /*protect_low=*/1, rng);
  // Collaboration networks cluster (co-author triangles) and carry leaf
  // symmetry (duplicate one-paper co-authors).
  Graph graph = BoostClustering(RealizeSequence(std::move(seq), rng),
                                /*attempts=*/60000, rng);
  return PairPendants(graph, 80, rng);
}

Graph MakeNetTraceLike(uint64_t seed) {
  Rng rng(seed ^ 0x9E77AACEull);
  const size_t n = 4213;
  const uint64_t target = 2 * 5507;
  std::vector<size_t> seq = PowerLawSequence(n, 2.2, 1, 150, rng);
  // The defining feature: one extreme hub, a few secondary hubs.
  seq[0] = 1656;
  seq[1] = 320;
  seq[2] = 180;
  seq[3] = 120;
  // Keep the mass of degree-1 leaves (median 1) while hitting the sum.
  AdjustToSum(seq, /*first=*/4, target, /*min_d=*/1, /*max_d=*/150,
              /*protect_low=*/1, rng);
  return RealizeSequence(std::move(seq), rng);
}

std::vector<Dataset> MakeAllDatasets(uint64_t seed) {
  std::vector<Dataset> datasets;
  datasets.push_back({"Enron",
                      MakeEnronLike(seed),
                      {111, 287, 1, 20, 5.0, 5.17}});
  datasets.push_back({"Hepth",
                      MakeHepthLike(seed),
                      {2510, 4737, 1, 36, 2.0, 3.77}});
  datasets.push_back({"Net_trace",
                      MakeNetTraceLike(seed),
                      {4213, 5507, 1, 1656, 1.0, 2.61}});
  return datasets;
}

}  // namespace ksym
