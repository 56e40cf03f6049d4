#include "baseline/kdegree.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <utility>

namespace ksym {
namespace {

// Exact DP over the descending degree sequence: partition into contiguous
// groups of size k..2k-1 raising each member to the group maximum, at
// minimum total increase. Returns group end indices (inclusive) in order.
// `sorted` must be descending and have size >= k.
std::vector<size_t> OptimalGroups(const std::vector<size_t>& sorted,
                                  uint32_t k) {
  const size_t n = sorted.size();
  KSYM_CHECK(n >= k);
  // prefix[i] = sum of sorted[0..i).
  std::vector<uint64_t> prefix(n + 1, 0);
  for (size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + sorted[i];
  auto group_cost = [&](size_t i, size_t j) {
    // Raise sorted[i..j] to sorted[i].
    return static_cast<uint64_t>(sorted[i]) * (j - i + 1) -
           (prefix[j + 1] - prefix[i]);
  };

  constexpr uint64_t kInf = ~uint64_t{0};
  std::vector<uint64_t> best(n, kInf);
  std::vector<size_t> split(n, 0);  // First index of the last group.
  for (size_t j = k - 1; j < n; ++j) {
    // Last group [i, j], size in [k, 2k-1] (a size-2k group is never better
    // than two size-k groups), or the whole prefix when j + 1 < 2k.
    const size_t max_size = std::min<size_t>(2 * k - 1, j + 1);
    for (size_t size = k; size <= max_size; ++size) {
      const size_t i = j + 1 - size;
      if (i != 0 && (i < k || best[i - 1] == kInf)) continue;
      const uint64_t prev = i == 0 ? 0 : best[i - 1];
      const uint64_t cost = prev + group_cost(i, j);
      if (cost < best[j]) {
        best[j] = cost;
        split[j] = i;
      }
    }
    if (j + 1 < 2 * k && best[j] == kInf) {
      // Short prefixes must be a single group even if larger than wanted.
      best[j] = group_cost(0, j);
      split[j] = 0;
    }
  }
  KSYM_CHECK(best[n - 1] != kInf);

  std::vector<size_t> ends;
  size_t j = n - 1;
  while (true) {
    ends.push_back(j);
    const size_t i = split[j];
    if (i == 0) break;
    j = i - 1;
  }
  std::reverse(ends.begin(), ends.end());
  return ends;
}

}  // namespace

std::vector<size_t> AnonymizeDegreeSequence(const std::vector<size_t>& degrees,
                                            uint32_t k) {
  const size_t n = degrees.size();
  if (n == 0 || k <= 1) return degrees;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&degrees](size_t a, size_t b) {
    return degrees[a] != degrees[b] ? degrees[a] > degrees[b] : a < b;
  });
  std::vector<size_t> sorted(n);
  for (size_t i = 0; i < n; ++i) sorted[i] = degrees[order[i]];

  std::vector<size_t> targets(n);
  if (n < k) {
    // k-anonymity is unattainable; best effort: one group.
    for (size_t i = 0; i < n; ++i) targets[order[i]] = sorted[0];
    return targets;
  }
  const std::vector<size_t> ends = OptimalGroups(sorted, k);
  size_t start = 0;
  for (size_t end : ends) {
    for (size_t i = start; i <= end; ++i) targets[order[i]] = sorted[start];
    start = end + 1;
  }
  return targets;
}

bool IsKDegreeAnonymous(const Graph& graph, uint32_t k) {
  std::map<size_t, size_t> multiplicity;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    ++multiplicity[graph.Degree(v)];
  }
  for (const auto& [degree, count] : multiplicity) {
    (void)degree;
    if (count < k) return false;
  }
  return true;
}

Result<KDegreeResult> KDegreeAnonymize(const Graph& graph, uint32_t k,
                                       Rng& rng) {
  const size_t n = graph.NumVertices();
  if (k <= 1) {
    return KDegreeResult{graph, 0, 1};
  }
  if (n < k) {
    return Status::InvalidArgument(
        "k-degree anonymity needs at least k vertices");
  }

  const std::vector<size_t> actual = graph.Degrees();
  std::vector<size_t> work = actual;  // Probing noise accumulates here.

  constexpr size_t kMaxAttempts = 40;
  for (size_t attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    std::vector<size_t> targets = AnonymizeDegreeSequence(work, k);

    // Parity: the total deficiency must be even to be realizable. Raising a
    // group's shared target by one flips parity only for odd-sized groups;
    // an odd total guarantees such a group exists. Bump the cheapest (the
    // group with the smallest target).
    uint64_t total_deficiency = 0;
    for (size_t v = 0; v < n; ++v) total_deficiency += targets[v] - actual[v];
    if (total_deficiency % 2 != 0) {
      std::map<size_t, size_t> group_sizes;  // target value -> member count.
      for (size_t t : targets) ++group_sizes[t];
      bool fixed = false;
      for (const auto& [value, count] : group_sizes) {
        if (count % 2 != 0 && group_sizes.count(value + 1) == 0) {
          for (size_t v = 0; v < n; ++v) {
            if (targets[v] == value) ++targets[v];
          }
          fixed = true;
          break;
        }
      }
      if (!fixed) {
        // Merging into an adjacent target value keeps k-anonymity too.
        for (auto it = group_sizes.begin(); it != group_sizes.end() && !fixed;
             ++it) {
          if (it->second % 2 != 0) {
            for (size_t v = 0; v < n; ++v) {
              if (targets[v] == it->first) ++targets[v];
            }
            fixed = true;
          }
        }
      }
      if (!fixed) {
        return Status::Internal("odd deficiency with no odd group");
      }
    }

    // Greedy supergraph realization: connect the most deficient vertex to
    // the next most deficient non-neighbours.
    std::vector<int64_t> deficiency(n);
    for (size_t v = 0; v < n; ++v) {
      deficiency[v] =
          static_cast<int64_t>(targets[v]) - static_cast<int64_t>(actual[v]);
    }
    // The added edges as (min, max) pairs; input edges are looked up in
    // `graph`, and the result is rebuilt from both once realization succeeds.
    std::set<std::pair<VertexId, VertexId>> added;
    bool failed = false;
    while (!failed) {
      std::vector<VertexId> deficient;
      for (VertexId v = 0; v < n; ++v) {
        if (deficiency[v] > 0) deficient.push_back(v);
      }
      if (deficient.empty()) break;
      std::sort(deficient.begin(), deficient.end(),
                [&deficiency](VertexId a, VertexId b) {
                  return deficiency[a] != deficiency[b]
                             ? deficiency[a] > deficiency[b]
                             : a < b;
                });
      const VertexId u = deficient.front();
      for (size_t i = 1; i < deficient.size() && deficiency[u] > 0; ++i) {
        const VertexId w = deficient[i];
        if (graph.HasEdge(u, w) ||
            !added.emplace(std::min(u, w), std::max(u, w)).second) {
          continue;
        }
        --deficiency[u];
        --deficiency[w];
      }
      // u scanned every deficient non-neighbour; still short = dead end.
      if (deficiency[u] > 0) failed = true;
    }
    if (!failed) {
      GraphBuilder builder(n);
      graph.ForEachEdge([&builder](VertexId a, VertexId b) {
        builder.AddEdge(a, b);
      });
      for (const auto& [a, b] : added) builder.AddEdge(a, b);
      KDegreeResult out;
      out.graph = builder.Build();
      out.edges_added = added.size();
      out.attempts = attempt;
      return out;
    }
    // Probing (Liu-Terzi): perturb the working degrees upward at a few
    // random vertices and retry the whole pipeline.
    for (int i = 0; i < 3; ++i) {
      const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      work[v] = std::max(work[v], actual[v]) + 1;
    }
  }
  return Status::Infeasible("no k-degree realization found within budget");
}

}  // namespace ksym
