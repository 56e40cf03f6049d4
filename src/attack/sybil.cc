#include "attack/sybil.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <numeric>
#include <span>
#include <utility>

#include "common/hash.h"
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

// One target's candidates as found by one worker. It starts as an
// open-addressing set of vertex ids, at most half full, and turns into a
// |V|-bit set once the bits take no more bytes than its members do as
// four-byte ids. So it holds nothing before its first member and at most
// 16 bytes per member after, and a dense set is tested with one bit.
class CandidateSet {
 public:
  explicit CandidateSet(size_t universe) : words_((universe + 63) / 64) {}

  bool Contains(VertexId u) const {
    if (!bits_.empty()) return (bits_[u >> 6] >> (u & 63)) & 1;
    if (slots_.empty()) return false;
    for (size_t slot = Slot(u);; slot = (slot + 1) & (slots_.size() - 1)) {
      if (slots_[slot] == u) return true;
      if (slots_[slot] == kInvalidVertex) return false;
    }
  }

  void Insert(VertexId u) {
    if (bits_.empty() && 2 * (size_ + 1) > slots_.size()) Grow();
    if (!bits_.empty()) {
      bits_[u >> 6] |= uint64_t{1} << (u & 63);
      return;
    }
    for (size_t slot = Slot(u);; slot = (slot + 1) & (slots_.size() - 1)) {
      if (slots_[slot] == u) return;
      if (slots_[slot] == kInvalidVertex) {
        slots_[slot] = u;
        ++size_;
        return;
      }
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < bits_.size(); ++w) {
      for (uint64_t bits = bits_[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<VertexId>(w * 64 + std::countr_zero(bits)));
      }
    }
    for (VertexId u : slots_) {
      if (u != kInvalidVertex) fn(u);
    }
  }

  std::vector<VertexId> Ascending() const {
    std::vector<VertexId> members;
    ForEach([&members](VertexId u) { members.push_back(u); });
    if (bits_.empty()) std::sort(members.begin(), members.end());
    return members;
  }

 private:
  size_t Slot(VertexId u) const {
    return HashCombine(0, u) & (slots_.size() - 1);
  }

  // Doubles the table, or moves the members to bits once 8 bytes per word
  // are at most 4 per member.
  void Grow() {
    std::vector<VertexId> members;
    members.swap(slots_);
    if (2 * words_ <= size_) {
      bits_.assign(words_, 0);
    } else {
      slots_.assign(std::max<size_t>(4, 2 * members.size()), kInvalidVertex);
    }
    size_ = 0;
    for (VertexId u : members) {
      if (u != kInvalidVertex) Insert(u);
    }
  }

  size_t words_;
  std::vector<uint64_t> bits_;  // Empty while the members are in slots_.
  std::vector<VertexId> slots_;
  size_t size_ = 0;  // Members in slots_.
};

// Per-shard recovery results, merged in shard order after the sweep. Each
// search fills its own and hands it over when its chunk is done, so workers
// share no cache line while they search.
struct ShardResult {
  size_t embeddings = 0;
  bool found_planted_embedding = false;
  bool truncated = false;
  std::vector<CandidateSet> candidates;  // Per target.
};

// One shard's streaming embedding search. Positions are assigned in
// pattern-id order; the path spine guarantees position i > 0 is adjacent to
// position i - 1, so candidates always come from an assigned vertex's
// neighbour list. mask_of_[u] holds bit j exactly when u is adjacent to the
// vertex at assigned position j: the bit is set when the position is
// assigned and cleared when it is released. So the induced-adjacency test
// of a candidate for position p is one compare with the pattern's bits
// below p. Positions 0..s-2 are assigned; the vertices that fit position
// s-1 are only collected into leaves_, and each prefix is settled once
// against all of them (Settle). Embeddings are counted, never stored.
class EmbeddingSearch {
 public:
  EmbeddingSearch(const Graph& release, const SybilPlan& plan)
      : release_(release),
        plan_(plan),
        pattern_masks_(PatternMasks(plan.pattern)),
        last_(static_cast<uint32_t>(plan.pattern.NumVertices()) - 1),
        mapping_(last_),
        mask_of_(release.NumVertices(), 0) {
    result_.candidates.assign(plan.targets.size(),
                              CandidateSet(release.NumVertices()));
    const uint32_t top = uint32_t{1} << last_;
    for (uint32_t t = 0; t < plan.fingerprints.size(); ++t) {
      const uint32_t fingerprint = plan.fingerprints[t];
      // A fingerprint with no bit or a bit past the pattern matches nothing.
      if (fingerprint == 0 || (fingerprint >> last_) > 1) continue;
      const uint32_t base = fingerprint & ~top;
      if (base >= targets_of_.size()) {
        targets_of_.resize(base + 1, {kNoTarget, kNoTarget});
      }
      targets_of_[base][fingerprint == base ? 0 : 1] = t;
      if (base != 0) scan_positions_ |= uint32_t{1} << std::countr_zero(base);
    }
  }

  void SearchAnchor(VertexId anchor, uint64_t max_nodes) {
    budget_ = max_nodes;
    if (last_ == 0) {  // A one-vertex pattern: the anchor is the leaf.
      leaves_.assign(1, anchor);
      Settle();
      return;
    }
    Assign(0, anchor);
    if (!Extend(1)) result_.truncated = true;
    Unassign(0);
  }

  ShardResult TakeResult() { return std::move(result_); }

 private:
  static constexpr uint32_t kNoTarget = ~uint32_t{0};

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

  // Whether v may take `position` after the positions below it: its
  // adjacency to them is the pattern's, its degree reaches the planted
  // one, and it is not already assigned.
  bool Fits(VertexId v, uint32_t position) const {
    return mask_of_[v] ==
               (pattern_masks_[position] & ((uint32_t{1} << position) - 1)) &&
           release_.Degree(v) >= plan_.planted_degrees[position] &&
           !IsAssigned(v, position);
  }

  // Returns false when the budget ran out; the caller then unwinds without
  // trying further candidates. At the last position the vertices that fit
  // are collected, not assigned, and the prefix is settled with the ones
  // found before the budget ran out.
  bool Extend(uint32_t position) {
    const bool last = position == last_;
    bool complete = true;
    for (VertexId v : release_.Neighbors(mapping_[position - 1])) {
      if (budget_ == 0) {
        complete = false;
        break;
      }
      --budget_;
      if (!Fits(v, position)) continue;
      if (last) {
        leaves_.push_back(v);
        continue;
      }
      Assign(position, v);
      complete = Extend(position + 1);
      Unassign(position);
      if (!complete) break;
    }
    if (last) Settle();
    return complete;
  }

  // Settles the assigned prefix against its leaves L: each leaf v is one
  // embedding, in which a vertex u's adjacency set is mask_of_[u] plus the
  // top bit s-1 exactly when u ~ v. So for a fingerprint f with base
  // f minus top, u outside the prefix matches f in some embedding iff
  // mask_of_[u] == base and some leaf v is adjacent to u (top in f), or
  // some leaf v != u is not (top not in f). Such a u is adjacent to the
  // position of its mask's lowest bit, so each position that is some
  // base's lowest bit has its list walked once, reading a vertex only
  // there and deciding its mask's at most two targets. A fingerprint of
  // the top bit alone has base 0 and is read off the leaves' own lists.
  void Settle() {
    result_.embeddings += leaves_.size();
    if (leaves_.empty()) return;
    if (std::equal(mapping_.begin(), mapping_.end(), plan_.sybils.begin()) &&
        std::find(leaves_.begin(), leaves_.end(), plan_.sybils[last_]) !=
            leaves_.end()) {
      result_.found_planted_embedding = true;
    }
    CandidateSet* const sets = result_.candidates.data();
    if (!targets_of_.empty() && targets_of_[0][1] != kNoTarget) {
      CandidateSet& found = sets[targets_of_[0][1]];
      for (VertexId v : leaves_) {
        for (VertexId u : release_.Neighbors(v)) {
          if (mask_of_[u] == 0 && !IsAssigned(u, last_)) found.Insert(u);
        }
      }
    }
    // Views, not members: across the calls below the compiler would load
    // each member again for every vertex.
    const std::span<const std::array<uint32_t, 2>> index(targets_of_);
    const std::span<const uint32_t> mask_of(mask_of_);
    for (uint32_t positions = scan_positions_; positions != 0;
         positions &= positions - 1) {
      const auto position = static_cast<uint32_t>(std::countr_zero(positions));
      const uint32_t below = (uint32_t{1} << position) - 1;
      for (VertexId u : release_.Neighbors(mapping_[position])) {
        // u is adjacent to the position, so its mask holds that bit; the
        // position is its lowest bit when no bit below it is set.
        const uint32_t mask = mask_of[u];
        if ((mask & below) != 0 || mask >= index.size()) continue;
        // The set test goes first: once the sets fill, most vertices are in
        // them, and it spares the assignment test.
        const auto [apart, adjacent] = index[mask];
        if (apart != kNoTarget && !sets[apart].Contains(u) &&
            !IsAssigned(u, last_) && AnyLeafApart(u)) {
          sets[apart].Insert(u);
        }
        if (adjacent != kNoTarget && !sets[adjacent].Contains(u) &&
            !IsAssigned(u, last_) && AnyLeafAdjacent(u)) {
          sets[adjacent].Insert(u);
        }
      }
    }
    leaves_.clear();
  }

  bool AnyLeafAdjacent(VertexId u) const {
    return std::any_of(leaves_.begin(), leaves_.end(), [&](VertexId v) {
      return release_.HasEdge(u, v);
    });
  }

  // More leaves than u's closed neighbourhood holds means one lies outside.
  bool AnyLeafApart(VertexId u) const {
    if (leaves_.size() > release_.Degree(u) + 1) return true;
    return std::any_of(leaves_.begin(), leaves_.end(), [&](VertexId v) {
      return v != u && !release_.HasEdge(u, v);
    });
  }

  const Graph& release_;
  const SybilPlan& plan_;
  const std::vector<uint32_t> pattern_masks_;
  const uint32_t last_;  // The last pattern position, s - 1.
  // Per base (a fingerprint without the top bit), the target whose
  // fingerprint is the base and the one whose fingerprint is the base plus
  // the top, or kNoTarget. Fingerprints are unique, so no third target
  // shares a base. Sized by the largest base.
  std::vector<std::array<uint32_t, 2>> targets_of_;
  uint32_t scan_positions_ = 0;  // The lowest bit of every base but 0.
  uint64_t budget_ = 0;  // Remaining candidate attempts for this anchor.
  std::vector<VertexId> mapping_;  // Positions 0..s-2.
  std::vector<uint32_t> mask_of_;
  std::vector<VertexId> leaves_;  // The current prefix's last positions.
  ShardResult result_;
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
    EmbeddingSearch search(release, plan);
    for (VertexId anchor = static_cast<VertexId>(begin); anchor < end;
         ++anchor) {
      if (release.Degree(anchor) < plan.planted_degrees[0]) continue;
      search.SearchAnchor(anchor, options.max_nodes_per_anchor);
    }
    shards[shard] = search.TakeResult();
  });

  SybilAttackReport report;
  report.candidate_sets.resize(num_targets);
  // The first shard's sets collect the others'. A shard that got no
  // anchors never built its sets.
  std::vector<CandidateSet> candidates;
  for (ShardResult& shard : shards) {
    report.embeddings_found += shard.embeddings;
    report.truncated = report.truncated || shard.truncated;
    report.found_planted_embedding =
        report.found_planted_embedding || shard.found_planted_embedding;
    if (candidates.empty()) {
      candidates = std::move(shard.candidates);
      continue;
    }
    for (size_t t = 0; t < shard.candidates.size(); ++t) {
      shard.candidates[t].ForEach(
          [&found = candidates[t]](VertexId u) { found.Insert(u); });
    }
    shard.candidates = {};
  }
  // No anchors at all: every set empty.
  candidates.resize(num_targets, CandidateSet(release.NumVertices()));

  double success_sum = 0.0;
  for (size_t t = 0; t < num_targets; ++t) {
    const bool hit = plan.targets[t] < release.NumVertices() &&
                     candidates[t].Contains(plan.targets[t]);
    report.candidate_sets[t] = candidates[t].Ascending();
    const size_t size = report.candidate_sets[t].size();
    if (hit) success_sum += 1.0 / static_cast<double>(size);
    if (hit && size == 1) ++report.unique_reidentifications;
  }
  report.success_probability =
      num_targets == 0 ? 0.0 : success_sum / static_cast<double>(num_targets);
  return report;
}

}  // namespace ksym
