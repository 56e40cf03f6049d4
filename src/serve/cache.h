// GraphCache: the daemon's mmap-backed input cache (DESIGN.md §12).
//
// ksym_serve loads each distinct .ksymcsr input once and serves every
// subsequent request that names it from the mapping already in memory. The
// cache key is the file's *header checksum* (read in O(1) via
// ReadCsrFileInfo), not its path: two paths to the same bytes share one
// entry, and an overwritten file is a new key, never a stale hit. Entries
// are LRU-evicted past `max_bytes`.
//
// Residency vs. lifetime: lookups hand out shared_ptr pins, eviction only
// drops the cache's own reference, so an in-flight request can never have
// its mapping unmapped underneath it — eviction just releases budget. The
// entry being inserted is always admitted, even when it alone exceeds the
// cap (progress beats the budget).
//
// Three entry kinds, disjoint key spaces, every value immutable once
// inserted, so concurrent requests share an entry without locking:
//   * whole graphs   (MapCsrFile — zero-copy, bytes = file size)
//   * release triples (ReadReleaseCsrFile — materialized, bytes estimated)
//   * shard sets     (ShardedGraph — keyed by manifest-file checksum;
//                     bytes = the set's mapped shard bytes)
//
// Text inputs are never cached (no checksummed header to key on); the API
// layer loads them per-request and records a bypass.

#ifndef KSYM_SERVE_CACHE_H_
#define KSYM_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "graph/io.h"
#include "ksym/release_io.h"
#include "shard/sharded_graph.h"

namespace ksym {
namespace serve {

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;       // Lookups that had to load from disk.
  uint64_t evictions = 0;
  uint64_t bypasses = 0;     // Uncacheable (text) inputs loaded around us.
  size_t resident_bytes = 0;
  size_t peak_resident_bytes = 0;
  size_t entries = 0;
};

class GraphCache {
 public:
  explicit GraphCache(size_t max_bytes) : max_bytes_(max_bytes) {}

  GraphCache(const GraphCache&) = delete;
  GraphCache& operator=(const GraphCache&) = delete;

  /// Whole-graph lookup for a binary .ksymcsr file. `hit`, if non-null,
  /// reports whether the mapping was already resident. Validation runs only
  /// on the miss path — a hit re-serves the already-validated mapping.
  Result<std::shared_ptr<const MappedCsrGraph>> GetGraph(
      const std::string& path, bool* hit = nullptr);

  /// Release-triple lookup for a binary release file.
  Result<std::shared_ptr<const ReleaseTriple>> GetRelease(
      const std::string& path, bool* hit = nullptr);

  /// Shard-set lookup by manifest path (keyed by the manifest file's
  /// content checksum).
  Result<std::shared_ptr<const ShardedGraph>> GetShardSet(
      const std::string& manifest_path, bool* hit = nullptr);

  /// Counts an uncacheable (text) load in the stats.
  void RecordBypass();

  CacheStats stats() const;
  size_t max_bytes() const { return max_bytes_; }

 private:
  struct Key {
    char kind = 0;  // 'g' graph, 'r' release, 's' shard set.
    uint64_t checksum = 0;

    friend bool operator==(const Key& a, const Key& b) {
      return a.kind == b.kind && a.checksum == b.checksum;
    }
  };

  struct Entry {
    Key key;
    size_t bytes = 0;
    std::shared_ptr<void> value;
  };

  /// Returns the entry's value if resident (moves it to the LRU front),
  /// else nullptr.
  std::shared_ptr<void> Lookup(const Key& key);

  /// Inserts (or re-finds, if a racing loader beat us) and evicts past the
  /// cap. Returns the value to use.
  std::shared_ptr<void> Insert(const Key& key, size_t bytes,
                               std::shared_ptr<void> value);

  mutable std::mutex mu_;
  size_t max_bytes_;
  CacheStats stats_;
  std::list<Entry> entries_;  // Front = most recently used.
};

}  // namespace serve
}  // namespace ksym

#endif  // KSYM_SERVE_CACHE_H_
