#include "attack/community.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/intern.h"

namespace ksym {
namespace {

// One synchronous round: next[v] = most frequent label in N(v), smallest on
// ties. `count` is label-indexed scratch, all zero on entry and on return:
// each vertex resets the labels it touched, keeping a round O(|E|)
// regardless of label count.
void PropagateRound(const Graph& graph, const std::vector<uint32_t>& current,
                    std::vector<uint32_t>& count, std::vector<uint32_t>& next) {
  std::vector<uint32_t> touched;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    touched.clear();
    for (VertexId u : graph.Neighbors(v)) {
      const uint32_t label = current[u];
      if (count[label] == 0) touched.push_back(label);
      ++count[label];
    }
    uint32_t best = current[v];  // Isolated vertices keep their label.
    uint32_t best_count = 0;
    for (uint32_t label : touched) {
      if (count[label] > best_count ||
          (count[label] == best_count && label < best)) {
        best = label;
        best_count = count[label];
      }
    }
    next[v] = best;
    for (uint32_t label : touched) count[label] = 0;
  }
}

}  // namespace

std::vector<uint32_t> CommunityLabels(const Graph& graph,
                                      uint32_t iterations) {
  // Equivariant seeding: interned degrees, never vertex ids.
  std::vector<uint32_t> degrees(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    degrees[v] = static_cast<uint32_t>(graph.Degree(v));
  }
  std::vector<uint32_t> labels = InternLabels(std::move(degrees));
  // Seed labels are the densest the stream ever gets: propagation only
  // reuses existing labels, so the seed label count bounds every round's
  // scratch size.
  const uint32_t num_labels =
      labels.empty() ? 0 : *std::max_element(labels.begin(), labels.end()) + 1;

  std::vector<uint32_t> count(num_labels, 0);
  std::vector<uint32_t> next(labels.size());
  for (uint32_t round = 0; round < iterations; ++round) {
    PropagateRound(graph, labels, count, next);
    std::swap(labels, next);
  }
  return InternLabels(std::move(labels));
}

StructuralMeasure CommunityMeasure(uint32_t iterations) {
  return {"community-t" + std::to_string(iterations),
          [iterations](const Graph& graph) {
            const std::vector<uint32_t> community =
                CommunityLabels(graph, iterations);
            std::vector<std::vector<uint64_t>> keys(graph.NumVertices());
            std::vector<uint32_t> neighbor_communities;
            for (VertexId v = 0; v < graph.NumVertices(); ++v) {
              neighbor_communities.clear();
              for (VertexId u : graph.Neighbors(v)) {
                neighbor_communities.push_back(community[u]);
              }
              std::sort(neighbor_communities.begin(),
                        neighbor_communities.end());
              // Run-length encode into (community << 32 | count) pairs;
              // sorted input makes the encoding canonical.
              std::vector<uint64_t>& key = keys[v];
              key.push_back(community[v]);
              for (size_t i = 0; i < neighbor_communities.size();) {
                size_t j = i;
                while (j < neighbor_communities.size() &&
                       neighbor_communities[j] == neighbor_communities[i]) {
                  ++j;
                }
                key.push_back((uint64_t{neighbor_communities[i]} << 32) |
                              static_cast<uint64_t>(j - i));
                i = j;
              }
            }
            return InternLabels(std::move(keys));
          }};
}

}  // namespace ksym
