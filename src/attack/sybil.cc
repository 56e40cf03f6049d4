#include "attack/sybil.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "common/status.h"

namespace ksym {
namespace {

// Adjacency of the (tiny) pattern as per-vertex bitmasks, so the inner
// backtracking check is a mask compare instead of a binary search.
std::vector<uint32_t> PatternMasks(const Graph& pattern) {
  std::vector<uint32_t> masks(pattern.NumVertices(), 0);
  pattern.ForEachEdge([&masks](VertexId u, VertexId v) {
    masks[u] |= uint32_t{1} << v;
    masks[v] |= uint32_t{1} << u;
  });
  return masks;
}

// Per-shard recovery results, merged in shard order after the sweep.
struct ShardResult {
  size_t embeddings = 0;
  bool found_planted_embedding = false;
  bool truncated = false;
  std::vector<std::vector<VertexId>> candidates;  // Per target.
};

// One shard's streaming embedding search. Positions are assigned in
// pattern-id order; the path spine guarantees position i > 0 is adjacent to
// position i - 1, so candidates always come from an assigned vertex's
// neighbour list. mask_of_[u] holds bit j exactly when u is adjacent to the
// vertex at assigned position j: the bit is set when the position is
// assigned and cleared when it is released. So the induced-adjacency test
// of a candidate for position p is one compare with the pattern's bits
// below p, and at a leaf mask_of_[u] is u's adjacency set to the embedding.
// Embeddings are counted and fingerprinted at the leaf, never stored.
class EmbeddingSearch {
 public:
  EmbeddingSearch(const Graph& release, const SybilPlan& plan,
                  ShardResult& result)
      : release_(release),
        plan_(plan),
        result_(result),
        pattern_masks_(PatternMasks(plan.pattern)),
        mapping_(plan.pattern.NumVertices()),
        mask_of_(release.NumVertices(), 0),
        last_mask_(release.NumVertices(), 0) {
    result_.candidates.resize(plan.targets.size());
    // Every candidate of a target is adjacent to the position of its
    // fingerprint's lowest bit; a fingerprint with no bit below s matches
    // no vertex.
    for (uint32_t fingerprint : plan.fingerprints) {
      const auto lowest = static_cast<uint32_t>(std::countr_zero(fingerprint));
      if (lowest < mapping_.size()) scan_positions_.push_back(lowest);
    }
    std::sort(scan_positions_.begin(), scan_positions_.end());
    scan_positions_.erase(
        std::unique(scan_positions_.begin(), scan_positions_.end()),
        scan_positions_.end());
  }

  void SearchAnchor(VertexId anchor, uint64_t max_nodes) {
    budget_ = max_nodes;
    Assign(0, anchor);
    if (!Extend(1)) result_.truncated = true;
    Unassign(0);
  }

 private:
  void Assign(uint32_t position, VertexId v) {
    mapping_[position] = v;
    for (VertexId u : release_.Neighbors(v)) {
      mask_of_[u] |= uint32_t{1} << position;
    }
  }

  void Unassign(uint32_t position) {
    for (VertexId u : release_.Neighbors(mapping_[position])) {
      mask_of_[u] &= ~(uint32_t{1} << position);
    }
  }

  bool IsAssigned(VertexId v, uint32_t positions) const {
    return std::find(mapping_.begin(), mapping_.begin() + positions, v) !=
           mapping_.begin() + positions;
  }

  bool IsFingerprint(uint32_t mask) const {
    return std::find(plan_.fingerprints.begin(), plan_.fingerprints.end(),
                     mask) != plan_.fingerprints.end();
  }

  // Returns false when the budget ran out; the caller then unwinds without
  // trying further candidates.
  bool Extend(uint32_t position) {
    const auto s = static_cast<uint32_t>(mapping_.size());
    if (position == s) {
      RecordLeaf();
      return true;
    }
    const uint32_t want =
        pattern_masks_[position] & ((uint32_t{1} << position) - 1);
    for (VertexId v : release_.Neighbors(mapping_[position - 1])) {
      if (budget_ == 0) return false;
      --budget_;
      if (mask_of_[v] != want ||
          release_.Degree(v) < plan_.planted_degrees[position] ||
          IsAssigned(v, position)) {
        continue;
      }
      Assign(position, v);
      const bool complete = Extend(position + 1);
      Unassign(position);
      if (!complete) return false;
    }
    return true;
  }

  // Scans the neighbour lists of the scan positions only, and reads each
  // vertex at its own lowest bit only.
  void RecordLeaf() {
    ++result_.embeddings;
    if (std::equal(mapping_.begin(), mapping_.end(), plan_.sybils.begin(),
                   plan_.sybils.end())) {
      result_.found_planted_embedding = true;
    }
    const auto s = static_cast<uint32_t>(mapping_.size());
    for (uint32_t position : scan_positions_) {
      for (VertexId u : release_.Neighbors(mapping_[position])) {
        const uint32_t mask = mask_of_[u];
        if (static_cast<uint32_t>(std::countr_zero(mask)) != position ||
            mask == last_mask_[u] || !IsFingerprint(mask) ||
            IsAssigned(u, s)) {
          continue;
        }
        for (size_t t = 0; t < result_.candidates.size(); ++t) {
          if (mask == plan_.fingerprints[t]) {
            result_.candidates[t].push_back(u);
          }
        }
        // u is already in this shard's lists for this mask; skip it until
        // it turns up under another one.
        last_mask_[u] = mask;
      }
    }
  }

  const Graph& release_;
  const SybilPlan& plan_;
  ShardResult& result_;
  const std::vector<uint32_t> pattern_masks_;
  std::vector<uint32_t> scan_positions_;  // Ascending, distinct.
  uint64_t budget_ = 0;  // Remaining candidate attempts for this anchor.
  std::vector<VertexId> mapping_;
  std::vector<uint32_t> mask_of_;
  std::vector<uint32_t> last_mask_;
};

}  // namespace

Result<SybilPlant> PlantSybils(const Graph& graph,
                               const SybilPlantOptions& options) {
  if (options.num_sybils == 0 || options.num_sybils > 30) {
    return Status::InvalidArgument("num_sybils must be in [1, 30]");
  }
  const uint64_t max_fingerprints =
      (uint64_t{1} << options.num_sybils) - 1;
  if (options.num_targets > max_fingerprints) {
    return Status::InvalidArgument(
        "num_targets exceeds the distinct non-empty fingerprints "
        "2^num_sybils - 1");
  }
  if (options.num_targets > graph.NumVertices()) {
    return Status::InvalidArgument("num_targets exceeds the vertex count");
  }

  const uint32_t s = options.num_sybils;
  Rng rng(options.seed);

  // Internal pattern: a path spine (so recovery can anchor-and-extend along
  // guaranteed edges) plus seed-chosen chords (so the pattern is unlikely to
  // occur naturally or to be symmetric).
  GraphBuilder pattern_builder(s);
  for (uint32_t i = 0; i + 1 < s; ++i) {
    pattern_builder.AddEdge(i, i + 1);
  }
  Rng chord_rng = rng.Fork(0);
  for (uint32_t i = 0; i < s; ++i) {
    for (uint32_t j = i + 2; j < s; ++j) {
      if (chord_rng.NextBernoulli(0.5)) pattern_builder.AddEdge(i, j);
    }
  }

  SybilPlan plan;
  plan.pattern = pattern_builder.Build();

  // Targets: a seed-determined sample of distinct original vertices
  // (partial Fisher-Yates over the id range).
  Rng target_rng = rng.Fork(1);
  std::vector<VertexId> ids(graph.NumVertices());
  std::iota(ids.begin(), ids.end(), VertexId{0});
  for (uint32_t t = 0; t < options.num_targets; ++t) {
    const uint64_t j = t + target_rng.NextBounded(ids.size() - t);
    std::swap(ids[t], ids[j]);
    plan.targets.push_back(ids[t]);
  }

  // Fingerprint of target t is the bitmask t + 1: unique and non-empty by
  // construction, and biased toward low-degree attachments (most targets
  // touch few sybils), which keeps the injection unobtrusive.
  for (uint32_t t = 0; t < options.num_targets; ++t) {
    plan.fingerprints.push_back(t + 1);
  }

  GraphBuilder builder(graph.NumVertices() + s);
  graph.ForEachEdge(
      [&builder](VertexId u, VertexId v) { builder.AddEdge(u, v); });
  for (uint32_t i = 0; i < s; ++i) {
    plan.sybils.push_back(static_cast<VertexId>(graph.NumVertices() + i));
  }
  plan.pattern.ForEachEdge([&](VertexId u, VertexId v) {
    builder.AddEdge(plan.sybils[u], plan.sybils[v]);
  });
  for (uint32_t t = 0; t < options.num_targets; ++t) {
    for (uint32_t i = 0; i < s; ++i) {
      if ((plan.fingerprints[t] >> i) & 1) {
        builder.AddEdge(plan.targets[t], plan.sybils[i]);
      }
    }
  }

  SybilPlant plant;
  plant.graph = builder.Build();
  for (VertexId sybil : plan.sybils) {
    plan.planted_degrees.push_back(plant.graph.Degree(sybil));
  }
  plant.plan = std::move(plan);
  return plant;
}

SybilAttackReport RecoverSybils(const Graph& release, const SybilPlan& plan,
                                const SybilRecoveryOptions& options) {
  const size_t num_targets = plan.targets.size();

  ThreadPool* pool = options.context == nullptr ? nullptr
                                                : options.context->pool();
  const uint32_t num_shards = pool == nullptr ? 1 : pool->num_threads();
  std::vector<ShardResult> shards(num_shards);

  ParallelFor(pool, release.NumVertices(), [&](size_t begin, size_t end,
                                               uint32_t shard) {
    EmbeddingSearch search(release, plan, shards[shard]);
    for (VertexId anchor = static_cast<VertexId>(begin); anchor < end;
         ++anchor) {
      if (release.Degree(anchor) < plan.planted_degrees[0]) continue;
      search.SearchAnchor(anchor, options.max_nodes_per_anchor);
    }
  });

  SybilAttackReport report;
  report.candidate_sets.resize(num_targets);
  for (const ShardResult& shard : shards) {
    report.embeddings_found += shard.embeddings;
    report.truncated = report.truncated || shard.truncated;
    report.found_planted_embedding =
        report.found_planted_embedding || shard.found_planted_embedding;
    for (size_t t = 0; t < shard.candidates.size(); ++t) {
      report.candidate_sets[t].insert(report.candidate_sets[t].end(),
                                      shard.candidates[t].begin(),
                                      shard.candidates[t].end());
    }
  }

  double success_sum = 0.0;
  for (size_t t = 0; t < num_targets; ++t) {
    std::vector<VertexId>& candidates = report.candidate_sets[t];
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    const bool hit = std::binary_search(candidates.begin(), candidates.end(),
                                        plan.targets[t]);
    if (hit) success_sum += 1.0 / static_cast<double>(candidates.size());
    if (hit && candidates.size() == 1) ++report.unique_reidentifications;
  }
  report.success_probability =
      num_targets == 0 ? 0.0 : success_sum / static_cast<double>(num_targets);
  return report;
}

}  // namespace ksym
