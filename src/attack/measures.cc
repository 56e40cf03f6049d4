#include "attack/measures.h"

#include <algorithm>
#include <utility>

#include "attack/intern.h"
#include "aut/canonical.h"
#include "aut/refinement.h"
#include "graph/algorithms.h"

namespace ksym {
namespace {

using attack_internal::InternLabels;

std::vector<std::vector<uint32_t>> NeighborDegreeSequences(
    const Graph& graph) {
  std::vector<std::vector<uint32_t>> sequences(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    auto& seq = sequences[v];
    seq.reserve(graph.Degree(v));
    for (VertexId u : graph.Neighbors(v)) {
      seq.push_back(static_cast<uint32_t>(graph.Degree(u)));
    }
    std::sort(seq.begin(), seq.end());
  }
  return sequences;
}

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
            return InternLabels(NeighborDegreeSequences(graph));
          }};
}

StructuralMeasure CombinedMeasure(const ExecutionContext* /*context*/) {
  return {"combined", [](const Graph& graph) {
            const std::vector<uint64_t> tri = TriangleCounts(graph);
            std::vector<std::pair<std::vector<uint32_t>, uint64_t>> keys;
            keys.reserve(graph.NumVertices());
            auto sequences = NeighborDegreeSequences(graph);
            for (VertexId v = 0; v < graph.NumVertices(); ++v) {
              keys.emplace_back(std::move(sequences[v]), tri[v]);
            }
            return InternLabels(std::move(keys));
          }};
}

StructuralMeasure NeighborhoodMeasure(const ExecutionContext* context) {
  return {"neighborhood", [context](const Graph& graph) {
            // Keys are flat uint64 streams so small (exact canonical form)
            // and large (refinement trace) ego networks intern uniformly.
            // Hub ego nets with thousands of vertices would make full
            // canonical labelling needlessly expensive; the coloured
            // refinement trace is isomorphism-invariant, so a collision can
            // only *merge* classes — a conservative (weaker) adversary,
            // never an inconsistent one.
            constexpr size_t kExactLimit = 64;
            // Each vertex's key is a pure function of its ego network,
            // written to its own slot: the vertex range shards freely and
            // the interning below sees the same key sequence for any thread
            // count. Each shard carries its own extractor — pulling n ego
            // networks through InducedSubgraph would pay an O(n) remap
            // allocation each, an O(n^2) total; the extractor's scratch
            // makes each pull O(ego size).
            std::vector<std::vector<uint64_t>> keys(graph.NumVertices());
            ThreadPool* pool = context == nullptr ? nullptr : context->pool();
            ParallelFor(
                pool, graph.NumVertices(),
                [&graph, &keys](size_t begin, size_t end, uint32_t) {
                  SubgraphExtractor extractor(graph);
                  std::vector<VertexId> ego;
                  for (VertexId v = static_cast<VertexId>(begin); v < end;
                       ++v) {
                    ego.assign(1, v);
                    const auto neighbors = graph.Neighbors(v);
                    ego.insert(ego.end(), neighbors.begin(), neighbors.end());
                    const Graph subgraph = extractor.Extract(ego);
                    // Mark the centre (index 0 of `ego`) so the class is
                    // rooted.
                    std::vector<uint32_t> colors(ego.size(), 0);
                    colors[0] = 1;

                    std::vector<uint64_t> key;
                    key.push_back(ego.size());
                    key.push_back(subgraph.NumEdges());
                    if (ego.size() <= kExactLimit) {
                      const CanonicalForm form =
                          ComputeCanonicalForm(subgraph, colors);
                      for (const auto& [a, b] : form.edges) {
                        key.push_back((uint64_t{a} << 32) | b);
                      }
                      for (uint32_t c : form.colors) {
                        key.push_back(0x100000000ull | c);
                      }
                    } else {
                      OrderedPartition partition(ego.size(), colors);
                      Refiner refiner(subgraph);
                      key.push_back(refiner.RefineAll(partition));
                      key.push_back(partition.NumCells());
                    }
                    keys[v] = std::move(key);
                  }
                });
            return InternLabels(std::move(keys));
          }};
}

VertexPartition PartitionByMeasure(const Graph& graph,
                                   const StructuralMeasure& measure) {
  const std::vector<uint32_t> labels = measure.eval(graph);
  KSYM_CHECK(labels.size() == graph.NumVertices());
  // Convert labels to representatives (minimum vertex with the label).
  std::vector<VertexId> rep_of_label(labels.size(), kInvalidVertex);
  std::vector<VertexId> rep(labels.size());
  for (VertexId v = 0; v < labels.size(); ++v) {
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
