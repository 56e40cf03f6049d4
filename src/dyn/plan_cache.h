// PlanCache: checksum-keyed memoization of expensive anonymization
// artifacts (DESIGN.md §15).
//
// The GraphCache (serve/cache.h) caches *inputs* — mmapped bytes keyed by
// file header checksum. The PlanCache caches *derived work* keyed by graph
// content checksum (DeltaGraph::ContentChecksum / GraphContentChecksum):
//
//   * plans    — the TDV partition + its refinement trace hash, keyed by
//                checksum alone. A plan hit skips refinement: only the
//                orbit copy runs (a new k on a known graph, or a graph
//                state reached again by other edits or another session).
//   * releases — the anonymized ReleaseTriple, keyed by (checksum, k). A
//                warm release entry turns a repeated `reanonymize` of an
//                unchanged graph into a pure lookup: no refinement, no
//                orbit copy (pinned by dyn_test via refine_calls == 0).
//
// Keying by content checksum follows the GraphCache discipline: two
// sessions (or a compaction) reaching the same logical graph share
// entries, and any mutation is a new key, never a stale hit. Same LRU
// shape too: byte-budget eviction, shared_ptr pinning (eviction only
// drops the cache's reference), the just-inserted entry always admitted,
// racing inserts keep the incumbent.

#ifndef KSYM_DYN_PLAN_CACHE_H_
#define KSYM_DYN_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>

#include "aut/orbits.h"
#include "ksym/release_io.h"

namespace ksym {
namespace dyn {

/// A memoized refinement outcome for one graph content checksum.
struct CachedPlan {
  VertexPartition tdv;
  uint64_t partition_checksum = 0;  // PartitionChecksum(tdv).
  /// The refinement trace hash of the refine that computed `tdv`.
  uint64_t trace_hash = 0;
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t resident_bytes = 0;
  size_t peak_resident_bytes = 0;
  size_t entries = 0;
};

class PlanCache {
 public:
  explicit PlanCache(size_t max_bytes) : max_bytes_(max_bytes) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Plan lookup by graph content checksum; nullptr on miss.
  std::shared_ptr<const CachedPlan> GetPlan(uint64_t graph_checksum);

  /// Inserts a plan (or returns a racing incumbent). The returned pointer
  /// is the entry to use either way.
  std::shared_ptr<const CachedPlan> PutPlan(uint64_t graph_checksum,
                                            CachedPlan plan);

  /// Release lookup by (graph content checksum, k); nullptr on miss.
  std::shared_ptr<const ReleaseTriple> GetRelease(uint64_t graph_checksum,
                                                  uint32_t k);

  std::shared_ptr<const ReleaseTriple> PutRelease(uint64_t graph_checksum,
                                                  uint32_t k,
                                                  ReleaseTriple release);

  PlanCacheStats stats() const;
  size_t max_bytes() const { return max_bytes_; }

 private:
  struct Key {
    char kind = 0;        // 'p' plan, 'r' release.
    uint64_t checksum = 0;
    uint64_t param = 0;   // k for releases, 0 for plans.

    friend bool operator==(const Key& a, const Key& b) {
      return a.kind == b.kind && a.checksum == b.checksum &&
             a.param == b.param;
    }
  };

  struct Entry {
    Key key;
    size_t bytes = 0;
    std::shared_ptr<void> value;
  };

  std::shared_ptr<void> Lookup(const Key& key);
  std::shared_ptr<void> Insert(const Key& key, size_t bytes,
                               std::shared_ptr<void> value);

  mutable std::mutex mu_;
  size_t max_bytes_;
  PlanCacheStats stats_;
  std::list<Entry> entries_;  // Front = most recently used.
};

}  // namespace dyn
}  // namespace ksym

#endif  // KSYM_DYN_PLAN_CACHE_H_
