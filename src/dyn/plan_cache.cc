#include "dyn/plan_cache.h"

#include <utility>

namespace ksym {
namespace dyn {

namespace {

size_t ApproxPartitionBytes(const VertexPartition& partition) {
  const size_t n = partition.cell_of.size();
  return n * sizeof(uint32_t) + n * sizeof(VertexId) +
         partition.cells.size() * sizeof(std::vector<VertexId>);
}

size_t ApproxPlanBytes(const CachedPlan& plan) {
  return sizeof(CachedPlan) + ApproxPartitionBytes(plan.tdv);
}

}  // namespace

std::shared_ptr<void> PlanCache::Lookup(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key == key) {
      entries_.splice(entries_.begin(), entries_, it);
      ++stats_.hits;
      return it->value;
    }
  }
  ++stats_.misses;
  return nullptr;
}

std::shared_ptr<void> PlanCache::Insert(const Key& key, size_t bytes,
                                        std::shared_ptr<void> value) {
  std::lock_guard<std::mutex> lock(mu_);
  // A racing computation may have inserted the same key while we were off
  // the lock; keep the incumbent so both callers share one artifact.
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key == key) {
      entries_.splice(entries_.begin(), entries_, it);
      return it->value;
    }
  }
  entries_.push_front(Entry{key, bytes, std::move(value)});
  stats_.resident_bytes += bytes;
  ++stats_.entries;
  // Evict past the cap, never the entry just inserted. Pinned holders keep
  // evicted artifacts alive; eviction only releases budget.
  while (stats_.resident_bytes > max_bytes_ && entries_.size() > 1) {
    const Entry& victim = entries_.back();
    stats_.resident_bytes -= victim.bytes;
    --stats_.entries;
    ++stats_.evictions;
    entries_.pop_back();
  }
  if (stats_.resident_bytes > stats_.peak_resident_bytes) {
    stats_.peak_resident_bytes = stats_.resident_bytes;
  }
  return entries_.front().value;
}

std::shared_ptr<const CachedPlan> PlanCache::GetPlan(uint64_t graph_checksum) {
  return std::static_pointer_cast<const CachedPlan>(
      Lookup(Key{'p', graph_checksum, 0}));
}

std::shared_ptr<const CachedPlan> PlanCache::PutPlan(uint64_t graph_checksum,
                                                     CachedPlan plan) {
  const size_t bytes = ApproxPlanBytes(plan);
  auto value = std::make_shared<CachedPlan>(std::move(plan));
  return std::static_pointer_cast<const CachedPlan>(
      Insert(Key{'p', graph_checksum, 0}, bytes, std::move(value)));
}

std::shared_ptr<const ReleaseTriple> PlanCache::GetRelease(
    uint64_t graph_checksum, uint32_t k) {
  return std::static_pointer_cast<const ReleaseTriple>(
      Lookup(Key{'r', graph_checksum, k}));
}

std::shared_ptr<const ReleaseTriple> PlanCache::PutRelease(
    uint64_t graph_checksum, uint32_t k, ReleaseTriple release) {
  const size_t bytes = ApproxReleaseBytes(release);
  auto value = std::make_shared<ReleaseTriple>(std::move(release));
  return std::static_pointer_cast<const ReleaseTriple>(
      Insert(Key{'r', graph_checksum, k}, bytes, std::move(value)));
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dyn
}  // namespace ksym
