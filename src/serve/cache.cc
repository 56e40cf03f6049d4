#include "serve/cache.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/str.h"

namespace ksym {
namespace serve {
namespace {

/// Content checksum of the manifest file — the shard-set cache key. Reads
/// the whole manifest (small: one line per shard), never the shards.
Result<uint64_t> ManifestChecksum(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError(
        StrFormat("cannot open manifest %s", path.c_str()));
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string body = contents.str();
  return CsrChecksum(body.data(), body.size());
}

}  // namespace

std::shared_ptr<void> GraphCache::Lookup(const Key& key) {
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

std::shared_ptr<void> GraphCache::Insert(const Key& key, size_t bytes,
                                         std::shared_ptr<void> value) {
  std::lock_guard<std::mutex> lock(mu_);
  // A racing request may have loaded the same key while we were off the
  // lock; keep the incumbent so both callers share one mapping.
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key == key) {
      entries_.splice(entries_.begin(), entries_, it);
      return it->value;
    }
  }
  entries_.push_front(Entry{key, bytes, std::move(value)});
  stats_.resident_bytes += bytes;
  ++stats_.entries;
  // Evict past the cap, never the entry just inserted. Dropping the cache's
  // reference is all eviction does — pinned holders keep the data alive.
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

Result<std::shared_ptr<const MappedCsrGraph>> GraphCache::GetGraph(
    const std::string& path, bool* hit) {
  KSYM_ASSIGN_OR_RETURN(const CsrFileInfo info, ReadCsrFileInfo(path));
  const Key key{'g', info.header_checksum};
  if (std::shared_ptr<void> found = Lookup(key)) {
    if (hit != nullptr) *hit = true;
    return std::static_pointer_cast<const MappedCsrGraph>(found);
  }
  if (hit != nullptr) *hit = false;
  KSYM_ASSIGN_OR_RETURN(MappedCsrGraph mapped, MapCsrFile(path));
  const size_t bytes = mapped.mapping.size();
  auto value = std::make_shared<MappedCsrGraph>(std::move(mapped));
  return std::static_pointer_cast<const MappedCsrGraph>(
      Insert(key, bytes, std::move(value)));
}

Result<std::shared_ptr<const ReleaseTriple>> GraphCache::GetRelease(
    const std::string& path, bool* hit) {
  KSYM_ASSIGN_OR_RETURN(const CsrFileInfo info, ReadCsrFileInfo(path));
  const Key key{'r', info.header_checksum};
  if (std::shared_ptr<void> found = Lookup(key)) {
    if (hit != nullptr) *hit = true;
    return std::static_pointer_cast<const ReleaseTriple>(found);
  }
  if (hit != nullptr) *hit = false;
  KSYM_ASSIGN_OR_RETURN(ReleaseTriple release, ReadReleaseCsrFile(path));
  const size_t bytes = ApproxReleaseBytes(release);
  auto value = std::make_shared<ReleaseTriple>(std::move(release));
  return std::static_pointer_cast<const ReleaseTriple>(
      Insert(key, bytes, std::move(value)));
}

Result<std::shared_ptr<const ShardedGraph>> GraphCache::GetShardSet(
    const std::string& manifest_path, bool* hit) {
  KSYM_ASSIGN_OR_RETURN(const uint64_t checksum,
                        ManifestChecksum(manifest_path));
  const Key key{'s', checksum};
  if (std::shared_ptr<void> found = Lookup(key)) {
    if (hit != nullptr) *hit = true;
    return std::static_pointer_cast<const ShardedGraph>(found);
  }
  if (hit != nullptr) *hit = false;
  KSYM_ASSIGN_OR_RETURN(ShardedGraph graph, ShardedGraph::Open(manifest_path));
  const size_t bytes = graph.stats().resident_bytes;
  auto value = std::make_shared<ShardedGraph>(std::move(graph));
  return std::static_pointer_cast<const ShardedGraph>(
      Insert(key, bytes, std::move(value)));
}

void GraphCache::RecordBypass() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.bypasses;
}

CacheStats GraphCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace serve
}  // namespace ksym
