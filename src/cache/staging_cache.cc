#include "src/cache/staging_cache.h"

#include <vector>

#include "src/obs/tracer.h"

namespace hiway {

StagingCache::StagingCache(StagingCacheOptions options) : options_(options) {}

int64_t StagingCache::CachedBytes(const std::string& path,
                                  uint64_t content_id, NodeId node) const {
  if (content_id == 0) return 0;  // file no longer exists in DFS
  std::lock_guard<std::mutex> lock(mu_);
  auto nit = nodes_.find(node);
  if (nit == nodes_.end()) return 0;
  auto eit = nit->second.entries.find(path);
  if (eit == nit->second.entries.end()) return 0;
  if (eit->second.content_id != content_id) return 0;
  return eit->second.bytes;
}

bool StagingCache::HitAndPin(NodeId node, const std::string& path,
                             uint64_t content_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto nit = nodes_.find(node);
  if (nit != nodes_.end()) {
    auto eit = nit->second.entries.find(path);
    if (eit != nit->second.entries.end() && content_id != 0 &&
        eit->second.content_id == content_id) {
      ++eit->second.pins;
      eit->second.tick = ++tick_;
      ++stats_.hits;
      stats_.bytes_served += eit->second.bytes;
      if (tracer_) {
        tracer_->Instant(SpanCategory::kCache, "staging_hit", -1, -1, -1,
                         node, 0.0, eit->second.bytes);
      }
      return true;
    }
  }
  ++stats_.misses;
  return false;
}

bool StagingCache::EvictToFit(NodeBucket* bucket, NodeId node,
                              int64_t incoming) {
  if (options_.node_budget_bytes <= 0) return true;
  while (bucket->bytes + incoming > options_.node_budget_bytes) {
    // Oldest unpinned entry.
    auto victim = bucket->entries.end();
    for (auto it = bucket->entries.begin(); it != bucket->entries.end();
         ++it) {
      if (it->second.pins > 0) continue;
      if (victim == bucket->entries.end() ||
          it->second.tick < victim->second.tick) {
        victim = it;
      }
    }
    if (victim == bucket->entries.end()) return false;  // all pinned
    bucket->bytes -= victim->second.bytes;
    ++stats_.evictions;
    if (tracer_) {
      tracer_->Instant(SpanCategory::kCache, "staging_evict", -1, -1, -1,
                       node, 0.0, victim->second.bytes);
    }
    bucket->entries.erase(victim);
  }
  return true;
}

bool StagingCache::PutLocked(NodeBucket* bucket, NodeId node,
                             const std::string& path, Entry entry) {
  auto eit = bucket->entries.find(path);
  if (eit != bucket->entries.end()) {
    // Same path staged again (content drifted, or a concurrent attempt
    // raced us): replace the bytes, keep existing pins honest.
    entry.pins += eit->second.pins;
    bucket->bytes -= eit->second.bytes;
    bucket->entries.erase(eit);
  }
  if (!EvictToFit(bucket, node, entry.bytes)) return false;
  entry.tick = ++tick_;
  bucket->entries.emplace(path, entry);
  bucket->bytes += entry.bytes;
  return true;
}

void StagingCache::InsertPinned(NodeId node, const std::string& path,
                                uint64_t content_id, int64_t bytes) {
  if (bytes < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Entry e;
  e.content_id = content_id;
  e.bytes = bytes;
  e.pins = 1;
  if (!PutLocked(&nodes_[node], node, path, e)) {
    ++stats_.rejected;
    return;
  }
  ++stats_.insertions;
}

void StagingCache::Unpin(NodeId node, const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto nit = nodes_.find(node);
  if (nit == nodes_.end()) return;
  auto eit = nit->second.entries.find(path);
  if (eit == nit->second.entries.end()) return;
  if (eit->second.pins > 0) --eit->second.pins;
}

void StagingCache::InvalidateNode(NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  auto nit = nodes_.find(node);
  if (nit == nodes_.end()) return;
  stats_.invalidated += static_cast<int64_t>(nit->second.entries.size());
  nodes_.erase(nit);
}

int StagingCache::MigrateNode(NodeId from, const std::vector<NodeId>& targets) {
  std::lock_guard<std::mutex> lock(mu_);
  auto nit = nodes_.find(from);
  if (nit == nodes_.end() || targets.empty()) return 0;
  NodeBucket& source = nit->second;
  int moved = 0;
  size_t next_target = 0;
  std::vector<std::string> drop;
  for (auto& [path, entry] : source.entries) {
    if (entry.pins > 0) continue;  // in use on the draining node
    // Round-robin placement, first target with room after LRU eviction.
    bool placed = false;
    for (size_t attempt = 0; attempt < targets.size(); ++attempt) {
      NodeId dst = targets[(next_target + attempt) % targets.size()];
      if (dst == from) continue;
      NodeBucket& sink = nodes_[dst];
      // Same path already there: keep the fresher copy (ours — the
      // drain is the most recent observation of the content).
      auto existing = sink.entries.find(path);
      if (existing != sink.entries.end() && existing->second.pins > 0) {
        continue;  // don't fight a pin
      }
      if (!PutLocked(&sink, dst, path, entry)) continue;
      next_target = (next_target + attempt + 1) % targets.size();
      placed = true;
      break;
    }
    drop.push_back(path);
    if (placed) {
      ++moved;
      ++stats_.migrated;
      if (tracer_) {
        tracer_->Instant(SpanCategory::kCache, "staging_migrate", -1, -1, -1,
                         from, 0.0, entry.bytes);
      }
    } else {
      ++stats_.invalidated;
    }
  }
  for (const std::string& path : drop) {
    auto eit = source.entries.find(path);
    if (eit == source.entries.end()) continue;
    source.bytes -= eit->second.bytes;
    source.entries.erase(eit);
  }
  if (source.entries.empty()) nodes_.erase(from);
  return moved;
}

int64_t StagingCache::NodeBytes(NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto nit = nodes_.find(node);
  return nit == nodes_.end() ? 0 : nit->second.bytes;
}

int64_t StagingCache::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [node, bucket] : nodes_) total += bucket.bytes;
  return total;
}

StagingCacheStats StagingCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace hiway
