#include "attack/measures.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <utility>

#include "aut/canonical.h"
#include "aut/refinement.h"
#include "common/intern.h"
#include "graph/algorithms.h"

namespace ksym {
namespace {

// Keys the rooted ego net of a vertex v (the induced subgraph on
// N(v) ∪ {v}, v marked) up to isomorphism. Two rooted ego nets are
// isomorphic iff their neighbour graphs H = G[N(v)] are, so an ego net of
// at most kExactLimit vertices is keyed by H alone:
//   (|N(v)| + 1, |N(v)| + |E(H)|)                       H has no edge;
//   (|N(v)| + 1, |N(v)| + |E(H)|, #K1, #K2, #P3, #K3,   otherwise,
//    canonical edges of the union of H's components of 4+ vertices)
// since K1, K2, P3 and K3 are the only connected graphs of at most three
// vertices (the union's vertex count follows from the counts). Larger (hub) ego nets are keyed by their coloured refinement
// trace: it is isomorphism-invariant, so a collision can only merge
// classes — a weaker adversary, never an inconsistent one — and it spares
// a full canonical labelling of thousands of vertices. No two key shapes
// can be equal: a hub key starts with a size over kExactLimit, and a star
// key is the only one of two entries.
class EgoNetKeys {
 public:
  explicit EgoNetKeys(const Graph& graph)
      : graph_(graph),
        position_(graph.NumVertices(), kNotInEgoNet),
        extractor_(graph) {}

  std::vector<uint64_t> Key(VertexId v) {
    const auto neighbors = graph_.Neighbors(v);
    const size_t d = neighbors.size();
    if (d + 1 > kExactLimit) return HubKey(v);

    // H's adjacency as one bit mask per neighbour position. A neighbour
    // row longer than N(v) is binary-searched instead of walked, so a leaf
    // of a hub costs O(log deg(hub)), not O(deg(hub)).
    for (size_t i = 0; i < d; ++i) {
      position_[neighbors[i]] = static_cast<uint8_t>(i);
    }
    uint64_t twice_edges = 0;
    for (size_t i = 0; i < d; ++i) {
      const auto row = graph_.Neighbors(neighbors[i]);
      uint64_t bits = 0;
      if (row.size() <= d) {
        for (VertexId w : row) {
          if (position_[w] != kNotInEgoNet) bits |= uint64_t{1} << position_[w];
        }
      } else {
        auto it = row.begin();
        for (size_t j = 0; j < d && it != row.end(); ++j) {
          it = std::lower_bound(it, row.end(), neighbors[j]);
          if (it != row.end() && *it == neighbors[j]) bits |= uint64_t{1} << j;
        }
      }
      adjacency_[i] = bits;
      twice_edges += static_cast<uint64_t>(std::popcount(bits));
    }
    for (VertexId u : neighbors) position_[u] = kNotInEgoNet;

    std::vector<uint64_t> key = {d + 1, d + twice_edges / 2};
    if (twice_edges == 0) return key;  // A star.

    // Components of H, by breadth-first search over the masks.
    uint64_t small_counts[4] = {};  // K1, K2, P3, K3.
    uint64_t large = 0;             // Members of components of 4+ vertices.
    for (uint64_t rest = (uint64_t{1} << d) - 1; rest != 0;) {
      uint64_t component = rest & (~rest + 1);
      for (uint64_t frontier = component; frontier != 0;) {
        uint64_t reached = 0;
        for (uint64_t bits = frontier; bits != 0; bits &= bits - 1) {
          reached |= adjacency_[std::countr_zero(bits)];
        }
        frontier = reached & ~component;
        component |= reached;
      }
      rest &= ~component;
      switch (std::popcount(component)) {
        case 1:
          ++small_counts[0];
          break;
        case 2:
          ++small_counts[1];
          break;
        case 3:
          // P3 has two edges, K3 three: the degree sum is 4 or 6.
          ++small_counts[DegreeSum(component) == 4 ? 2 : 3];
          break;
        default:
          large |= component;
      }
    }
    key.insert(key.end(), std::begin(small_counts), std::end(small_counts));
    if (large != 0) {
      for (const auto& [a, b] : ComputeCanonicalForm(MaskGraph(large)).edges) {
        key.push_back((uint64_t{a} << 32) | b);
      }
    }
    return key;
  }

 private:
  static constexpr size_t kExactLimit = 64;
  static constexpr uint8_t kNotInEgoNet = 0xFF;

  // The sum of H-degrees over `members`, counted inside `members`.
  uint64_t DegreeSum(uint64_t members) const {
    uint64_t sum = 0;
    for (uint64_t bits = members; bits != 0; bits &= bits - 1) {
      sum += static_cast<uint64_t>(
          std::popcount(adjacency_[std::countr_zero(bits)] & members));
    }
    return sum;
  }

  // H induced on `members`, its vertices numbered in position order.
  Graph MaskGraph(uint64_t members) const {
    std::vector<EdgeIndex> offsets = {0};
    std::vector<VertexId> row_entries;
    for (uint64_t bits = members; bits != 0; bits &= bits - 1) {
      const uint64_t row = adjacency_[std::countr_zero(bits)] & members;
      for (uint64_t entries = row; entries != 0; entries &= entries - 1) {
        const uint64_t below = (uint64_t{1} << std::countr_zero(entries)) - 1;
        row_entries.push_back(
            static_cast<VertexId>(std::popcount(members & below)));
      }
      offsets.push_back(row_entries.size());
    }
    return Graph::FromCsr(std::move(offsets), std::move(row_entries));
  }

  std::vector<uint64_t> HubKey(VertexId v) {
    std::vector<VertexId> ego = {v};
    const auto neighbors = graph_.Neighbors(v);
    ego.insert(ego.end(), neighbors.begin(), neighbors.end());
    const Graph subgraph = extractor_.Extract(ego);
    // Mark the centre (index 0 of `ego`) so the class is rooted.
    std::vector<uint32_t> colors(ego.size(), 0);
    colors[0] = 1;
    OrderedPartition partition(ego.size(), colors);
    Refiner refiner(subgraph);
    const uint64_t trace = refiner.RefineAll(partition);
    return {ego.size(), subgraph.NumEdges(), trace, partition.NumCells()};
  }

  const Graph& graph_;
  std::vector<uint8_t> position_;  // Index in N(v) while v is keyed.
  uint64_t adjacency_[kExactLimit - 1] = {};
  SubgraphExtractor extractor_;
};

}  // namespace

StructuralMeasure DegreeMeasure(const ExecutionContext* /*context*/) {
  return {"degree", [](const Graph& graph) {
            std::vector<uint32_t> keys(graph.NumVertices());
            for (VertexId v = 0; v < graph.NumVertices(); ++v) {
              keys[v] = static_cast<uint32_t>(graph.Degree(v));
            }
            return InternLabels(std::move(keys));
          }};
}

StructuralMeasure TriangleMeasure(const ExecutionContext* /*context*/) {
  return {"triangle", [](const Graph& graph) {
            return InternLabels(TriangleCounts(graph));
          }};
}

StructuralMeasure NeighborDegreeSequenceMeasure(
    const ExecutionContext* /*context*/) {
  return {"neighbor-degrees", [](const Graph& graph) {
            std::vector<std::vector<uint32_t>> keys(graph.NumVertices());
            for (VertexId v = 0; v < graph.NumVertices(); ++v) {
              std::vector<uint32_t>& key = keys[v];
              key.reserve(graph.Degree(v));
              for (VertexId u : graph.Neighbors(v)) {
                key.push_back(static_cast<uint32_t>(graph.Degree(u)));
              }
              std::sort(key.begin(), key.end());
            }
            return InternLabels(std::move(keys));
          }};
}

StructuralMeasure CombinedMeasure(const ExecutionContext* context) {
  return {"combined", [context](const Graph& graph) {
            return CombinedLabels(
                NeighborDegreeSequenceMeasure(context).eval(graph),
                TriangleMeasure(context).eval(graph));
          }};
}

std::vector<uint32_t> CombinedLabels(const std::vector<uint32_t>& deg_labels,
                                     const std::vector<uint32_t>& tri_labels) {
  KSYM_CHECK(deg_labels.size() == tri_labels.size());
  std::vector<uint64_t> keys(deg_labels.size());
  for (size_t v = 0; v < keys.size(); ++v) {
    keys[v] = uint64_t{deg_labels[v]} << 32 | tri_labels[v];
  }
  return InternLabels(std::move(keys));
}

StructuralMeasure NeighborhoodMeasure(const ExecutionContext* context) {
  return {"neighborhood", [context](const Graph& graph) {
            // Each vertex's key is a pure function of its ego network,
            // written to its own slot: the vertex range shards freely and
            // the interning below sees the same key sequence for any thread
            // count. Each shard carries its own scratch.
            std::vector<std::vector<uint64_t>> keys(graph.NumVertices());
            ThreadPool* pool = context == nullptr ? nullptr : context->pool();
            ParallelFor(pool, graph.NumVertices(),
                        [&graph, &keys](size_t begin, size_t end, uint32_t) {
                          EgoNetKeys ego_net_keys(graph);
                          for (size_t v = begin; v < end; ++v) {
                            keys[v] = ego_net_keys.Key(
                                static_cast<VertexId>(v));
                          }
                        });
            return InternLabels(std::move(keys));
          }};
}

VertexPartition PartitionByMeasure(const Graph& graph,
                                   const StructuralMeasure& measure) {
  const std::vector<uint32_t> labels = measure.eval(graph);
  KSYM_CHECK(labels.size() == graph.NumVertices());
  return PartitionByLabels(labels);
}

VertexPartition PartitionByLabels(const std::vector<uint32_t>& labels) {
  // Convert labels to representatives (minimum vertex with the label).
  std::vector<VertexId> rep_of_label(labels.size(), kInvalidVertex);
  std::vector<VertexId> rep(labels.size());
  for (VertexId v = 0; v < labels.size(); ++v) {
    KSYM_CHECK(labels[v] < labels.size());
    if (rep_of_label[labels[v]] == kInvalidVertex) rep_of_label[labels[v]] = v;
    rep[v] = rep_of_label[labels[v]];
  }
  return VertexPartition::FromRepresentatives(rep);
}

std::vector<VertexId> CandidateSet(const Graph& graph,
                                   const StructuralMeasure& measure,
                                   VertexId v) {
  const VertexPartition partition = PartitionByMeasure(graph, measure);
  return partition.cells[partition.cell_of[v]];
}

}  // namespace ksym
