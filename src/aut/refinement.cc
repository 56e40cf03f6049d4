#include "aut/refinement.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/hash.h"

namespace ksym {

OrderedPartition::OrderedPartition(size_t n,
                                   const std::vector<uint32_t>& colors)
    : elements_(n), position_(n), cell_start_(n), cell_size_(n, 0) {
  KSYM_CHECK(colors.empty() || colors.size() == n);
  std::iota(elements_.begin(), elements_.end(), 0u);
  if (!colors.empty()) {
    std::sort(elements_.begin(), elements_.end(),
              [&colors](VertexId a, VertexId b) {
                return colors[a] != colors[b] ? colors[a] < colors[b] : a < b;
              });
  }
  // Carve cells at color boundaries (one cell total if no colors).
  size_t start = 0;
  for (size_t i = 0; i <= n; ++i) {
    const bool boundary =
        i == n || (!colors.empty() && i > start &&
                   colors[elements_[i]] != colors[elements_[start]]);
    if (boundary) {
      if (i > start) {
        cell_size_[start] = static_cast<uint32_t>(i - start);
        for (size_t j = start; j < i; ++j) {
          position_[elements_[j]] = static_cast<uint32_t>(j);
          cell_start_[elements_[j]] = static_cast<uint32_t>(start);
        }
        ++num_cells_;
      }
      start = i;
    }
  }
  if (n == 0) num_cells_ = 0;
}

uint32_t OrderedPartition::TargetCell() const {
  uint32_t pos = target_hint_;
  const uint32_t n = static_cast<uint32_t>(elements_.size());
  while (pos < n && cell_size_[pos] == 1) ++pos;
  target_hint_ = pos;
  return pos < n ? pos : kNoCell;
}

uint32_t OrderedPartition::Individualize(VertexId v) {
  const uint32_t start = cell_start_[v];
  const uint32_t size = cell_size_[start];
  KSYM_CHECK(size >= 2);
  // Carve [start, size-1] | [v]: the remainder keeps its start id, so the
  // split and its revert touch only v's bookkeeping.
  static constexpr uint32_t kSingleton[] = {1};
  SplitCell(start, {&v, 1}, kSingleton);
  return start + size - 1;
}

std::vector<std::vector<VertexId>> OrderedPartition::Cells() const {
  std::vector<std::vector<VertexId>> cells;
  cells.reserve(num_cells_);
  uint32_t pos = 0;
  const uint32_t n = static_cast<uint32_t>(elements_.size());
  while (pos < n) {
    const uint32_t size = cell_size_[pos];
    cells.emplace_back(elements_.begin() + pos,
                       elements_.begin() + pos + size);
    pos += size;
  }
  return cells;
}

void OrderedPartition::SplitCell(uint32_t start,
                                 std::span<const VertexId> tail,
                                 std::span<const uint32_t> tail_groups) {
  const uint32_t size = cell_size_[start];
  const uint32_t rest = size - static_cast<uint32_t>(tail.size());
  KSYM_DCHECK(tail.size() <= size);
  // Swap the tail members into the last |tail| slots (any member still
  // unplaced sits before `end`), then lay them out in the given order.
  uint32_t end = start + size;
  for (VertexId v : tail) {
    --end;
    const uint32_t from = position_[v];
    const VertexId displaced = elements_[end];
    elements_[from] = displaced;
    position_[displaced] = from;
  }
  uint32_t pos = start + rest;
  for (VertexId v : tail) {
    elements_[pos] = v;
    position_[v] = pos++;
  }
  // Carve the groups. The untouched front keeps `start`, so its members'
  // cell_start_ entries are already right.
  uint32_t num_groups = 0;
  uint32_t gstart = start;
  if (rest > 0) {
    cell_size_[start] = rest;
    gstart += rest;
    ++num_groups;
  }
  for (uint32_t gsize : tail_groups) {
    cell_size_[gstart] = gsize;
    for (uint32_t i = gstart; i < gstart + gsize; ++i) {
      cell_start_[elements_[i]] = gstart;
    }
    gstart += gsize;
    ++num_groups;
  }
  KSYM_DCHECK(gstart == start + size);
  num_cells_ += num_groups - 1;
  journal_.push_back({start, size, num_groups});
}

void OrderedPartition::RevertTo(size_t mark) {
  KSYM_CHECK(mark <= journal_.size());
  while (journal_.size() > mark) {
    const SplitRecord record = journal_.back();
    journal_.pop_back();
    target_hint_ = std::min(target_hint_, record.start);
    // Later splits are already reverted, so the first group has the size
    // it had right after this split; only the members behind it moved.
    const uint32_t end = record.start + record.old_size;
    for (uint32_t i = record.start + cell_size_[record.start]; i < end; ++i) {
      cell_start_[elements_[i]] = record.start;
    }
    cell_size_[record.start] = record.old_size;
    num_cells_ -= record.num_groups - 1;
  }
}

void SortSplitKeys(std::span<SplitKey> keys, std::vector<SplitKey>& scratch) {
  const size_t n = keys.size();
  if (n <= kInsertionSortMaxKeys) {
    for (size_t i = 1; i < n; ++i) {
      const SplitKey key = keys[i];
      size_t j = i;
      for (; j > 0 && key < keys[j - 1]; --j) keys[j] = keys[j - 1];
      keys[j] = key;
    }
    return;
  }
  // LSD radix sort: one stable counting pass per byte, lowest first. A byte
  // every key shares (equal in their OR and their AND) would leave the
  // order as it is, so it gets no pass. One read of the keys counts the
  // histograms of every pass.
  SplitKey any = 0;
  SplitKey all = ~SplitKey{0};
  for (const SplitKey key : keys) {
    any |= key;
    all &= key;
  }
  unsigned shifts[16] = {};
  unsigned passes = 0;
  for (unsigned shift = 0; shift < 128; shift += 8) {
    if (static_cast<uint8_t>((any ^ all) >> shift) != 0) {
      shifts[passes++] = shift;
    }
  }
  // Only the passes' rows are zeroed, and only they are read.
  uint32_t offsets[16][256];
  for (unsigned p = 0; p < passes; ++p) std::fill_n(offsets[p], 256, 0u);
  for (const SplitKey key : keys) {
    for (unsigned p = 0; p < passes; ++p) {
      ++offsets[p][static_cast<uint8_t>(key >> shifts[p])];
    }
  }
  scratch.resize(n);
  SplitKey* from = keys.data();
  SplitKey* to = scratch.data();
  for (unsigned p = 0; p < passes; ++p) {
    uint32_t sum = 0;
    for (uint32_t& offset : offsets[p]) {
      const uint32_t count = offset;
      offset = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      to[offsets[p][static_cast<uint8_t>(from[i] >> shifts[p])]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != keys.data()) std::copy(from, from + n, keys.data());
}

Refiner::Refiner(const Graph& graph) : Refiner(graph, nullptr) {}

Refiner::Refiner(const Graph& graph, const ExecutionContext* context)
    : source_(nullptr),
      owned_source_(std::make_unique<CsrNeighborSource>(graph)),
      context_(context),
      count_(graph.NumVertices(), 0),
      pending_(graph.NumVertices(), 0) {
  source_ = owned_source_.get();
}

Refiner::Refiner(NeighborSource& source, const ExecutionContext* context)
    : source_(&source),
      context_(context),
      count_(source.NumVertices(), 0),
      pending_(source.NumVertices(), 0) {}

uint64_t Refiner::RefineAll(OrderedPartition& p) {
  uint32_t pos = 0;
  const uint32_t n = static_cast<uint32_t>(p.NumVertices());
  while (pos < n) {
    Schedule(pos);
    pos += p.CellSizeAt(pos);
  }
  return DoRefine(p);
}

uint64_t Refiner::RefineFrom(OrderedPartition& p, uint32_t seed_start) {
  Schedule(seed_start);
  return DoRefine(p);
}

uint64_t Refiner::DoRefine(OrderedPartition& p) {
  ScopedPhaseTimer refine_timer(context_, &RefinementStats::refine_seconds);
  uint64_t hash = 0x243F6A8885A308D3ull;
  size_t head = 0;
  while (head < worklist_.size()) {
    const uint32_t w_start = worklist_[head++];
    pending_[w_start] = 0;
    ProcessSplitter(p, w_start, hash);
  }
  worklist_.clear();

  if (context_ != nullptr) {
    ++context_->stats().refine_calls;
    context_->stats().splitters_processed += head;
  }

  // The per-split records already pin down the resulting structure given
  // the (inductively equal) input structure; mix the cell count as a cheap
  // extra integrity check.
  return HashCombine(hash, p.NumCells());
}

void Refiner::ProcessSplitter(OrderedPartition& p, uint32_t w_start,
                              uint64_t& hash) {
  // The splitter is the cell at w_start now: a subset of the cell that was
  // queued, since any part split off it was queued on its own. Counting is
  // the only edge access in refinement, one seam call per splitter.
  source_->CountSplitter(p.CellAt(w_start), count_, touched_);
  if (touched_.empty()) return;
  keys_.clear();
  for (VertexId v : touched_) {
    keys_.push_back(SplitKey{p.CellStartOf(v)} << 64 |
                    SplitKey{count_[v]} << 32 | v);
    count_[v] = 0;
  }
  touched_.clear();
  SortSplitKeys(keys_, sort_scratch_);

  const auto cell_of = [this](size_t i) {
    return static_cast<uint32_t>(keys_[i] >> 64);
  };
  const auto count_of = [this](size_t i) {
    return static_cast<uint32_t>(keys_[i] >> 32);
  };
  // One run of keys_ per affected cell, in ascending cell order.
  for (size_t first = 0, last = 0; first < keys_.size(); first = last) {
    const uint32_t c_start = cell_of(first);
    while (last < keys_.size() && cell_of(last) == c_start) ++last;
    const uint32_t c_size = p.CellSizeAt(c_start);
    const uint32_t rest = c_size - static_cast<uint32_t>(last - first);
    // Uniform (every member touched the same number of times): no split.
    if (rest == 0 && count_of(first) == count_of(last - 1)) continue;

    // Groups in order: the untouched rest (count 0), then the touched
    // vertices by ascending count. The largest group is the first one of
    // maximal size — an isomorphism-invariant choice.
    tail_.clear();
    tail_groups_.clear();
    uint32_t largest_start = c_start;
    uint32_t largest_size = rest;
    uint32_t gstart = c_start + rest;
    if (rest > 0) {
      hash = HashCombine(hash, uint64_t{c_start} << 32);
      hash = HashCombine(hash, rest);
    }
    uint32_t group_len = 0;
    for (size_t i = first; i < last; ++i) {
      tail_.push_back(static_cast<VertexId>(keys_[i]));
      ++group_len;
      if (i + 1 == last || count_of(i + 1) != count_of(i)) {
        tail_groups_.push_back(group_len);
        hash = HashCombine(hash, (uint64_t{c_start} << 32) | count_of(i));
        hash = HashCombine(hash, group_len);
        if (group_len > largest_size) {
          largest_size = group_len;
          largest_start = gstart;
        }
        gstart += group_len;
        group_len = 0;
      }
    }
    p.SplitCell(c_start, tail_, tail_groups_);
    if (context_ != nullptr) ++context_->stats().cells_split;

    // Hopcroft's rule: if the parent is still queued, its entry now names
    // the first group and every other group is queued; otherwise every
    // group but the largest is. Counts into the skipped group are the
    // parent's (uniform on every cell, since the parent was processed or
    // its parent's counts were) minus the queued groups' counts.
    const uint32_t skip = pending_[c_start] ? c_start : largest_start;
    gstart = c_start;
    if (rest > 0) {
      if (gstart != skip) Schedule(gstart);
      gstart += rest;
    }
    for (uint32_t gsize : tail_groups_) {
      if (gstart != skip) Schedule(gstart);
      gstart += gsize;
    }
    hash = HashCombine(hash, (uint64_t{w_start} << 32) | c_start);
  }
}

std::vector<std::vector<VertexId>> EquitablePartition(
    const Graph& graph, const RefinementOptions& options) {
  CsrNeighborSource source(graph);
  return EquitablePartition(source, options);
}

std::vector<std::vector<VertexId>> EquitablePartition(
    NeighborSource& source, const RefinementOptions& options) {
  OrderedPartition partition(source.NumVertices(), options.colors);
  Refiner refiner(source, options.context);
  const uint64_t trace = refiner.RefineAll(partition);
  if (options.trace_hash != nullptr) *options.trace_hash = trace;
  return partition.Cells();
}

}  // namespace ksym
