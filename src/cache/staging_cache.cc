#include "src/cache/staging_cache.h"

#include <algorithm>
#include <vector>

#include "src/obs/tracer.h"

namespace hiway {

StagingCache::StagingCache(StagingCacheOptions options) : options_(options) {}

int64_t StagingCache::CachedBytes(FileId file, uint64_t content_id,
                                  NodeId node) const {
  if (content_id == 0) return 0;  // file no longer exists in DFS
  std::lock_guard<std::mutex> lock(mu_);
  auto nit = nodes_.find(node);
  if (nit == nodes_.end()) return 0;
  auto eit = nit->second.entries.find(file);
  if (eit == nit->second.entries.end()) return 0;
  if (eit->second.content_id != content_id) return 0;
  return eit->second.bytes;
}

void StagingCache::FreshCopies(
    FileId file, uint64_t content_id,
    std::vector<std::pair<NodeId, int64_t>>* out) const {
  if (content_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [node, bucket] : nodes_) {
    auto eit = bucket.entries.find(file);
    if (eit != bucket.entries.end() && eit->second.content_id == content_id) {
      out->emplace_back(node, eit->second.bytes);
    }
  }
}

void StagingCache::Watch(FileId file, Dfs::FileWatcher* watcher,
                         uint64_t cookie) {
  std::lock_guard<std::mutex> lock(mu_);
  watches_.Add(file, watcher, cookie);
}

void StagingCache::Unwatch(FileId file, Dfs::FileWatcher* watcher,
                           uint64_t cookie) {
  std::lock_guard<std::mutex> lock(mu_);
  watches_.Remove(file, watcher, cookie);
}

void StagingCache::NoteChangeLocked(FileId file, NodeId node) {
  watches_.ForEach(file, [&](Dfs::FileWatcher* watcher, uint64_t cookie) {
    notices_.push_back({watcher, cookie, file, node});
  });
}

void StagingCache::Publish(std::unique_lock<std::mutex>* lock) {
  if (notices_.empty()) return;  // the lock releases on scope exit
  std::vector<Notice> notices;
  notices.swap(notices_);
  // A watcher reads the cache back (CachedBytes), which takes mu_.
  lock->unlock();
  for (const Notice& n : notices) {
    n.watcher->OnFileChanged(n.file, n.node, n.cookie);
  }
}

bool StagingCache::HitAndPin(NodeId node, FileId file, uint64_t content_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto nit = nodes_.find(node);
  if (nit != nodes_.end()) {
    auto eit = nit->second.entries.find(file);
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
                              int64_t extra, FileId keep) {
  if (options_.node_budget_bytes <= 0) return true;
  while (bucket->bytes + extra > options_.node_budget_bytes) {
    // Oldest unpinned entry (ticks are unique, so the scan order of the
    // hash map cannot change the pick).
    auto victim = bucket->entries.end();
    for (auto it = bucket->entries.begin(); it != bucket->entries.end();
         ++it) {
      if (it->second.pins > 0 || it->first == keep) continue;
      if (victim == bucket->entries.end() ||
          it->second.tick < victim->second.tick) {
        victim = it;
      }
    }
    if (victim == bucket->entries.end()) return false;  // all pinned
    bucket->bytes -= victim->second.bytes;
    ++stats_.evictions;
    NoteChangeLocked(victim->first, node);
    if (tracer_) {
      tracer_->Instant(SpanCategory::kCache, "staging_evict", -1, -1, -1,
                       node, 0.0, victim->second.bytes);
    }
    bucket->entries.erase(victim);
  }
  return true;
}

bool StagingCache::PutLocked(NodeBucket* bucket, NodeId node, FileId file,
                             Entry entry) {
  // Same file staged again (content drifted, or a concurrent attempt
  // raced us). Its bytes make room only when no attempt still reads
  // them; the fit is decided before the old entry is touched.
  auto old = bucket->entries.find(file);
  bool replaces = old != bucket->entries.end();
  int64_t freed = replaces && old->second.pins == 0 ? old->second.bytes : 0;
  if (!EvictToFit(bucket, node, entry.bytes - freed, file)) return false;
  if (replaces) {
    entry.pins += old->second.pins;
    bucket->bytes -= old->second.bytes;
    bucket->entries.erase(old);
  }
  entry.tick = ++tick_;
  bucket->entries.emplace(file, entry);
  bucket->bytes += entry.bytes;
  NoteChangeLocked(file, node);
  return true;
}

void StagingCache::InsertPinned(NodeId node, FileId file, uint64_t content_id,
                                int64_t bytes) {
  if (bytes < 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  Entry e;
  e.content_id = content_id;
  e.bytes = bytes;
  e.pins = 1;
  if (PutLocked(&nodes_[node], node, file, e)) {
    ++stats_.insertions;
  } else {
    ++stats_.rejected;  // evictions on the way may still have happened
  }
  Publish(&lock);
}

void StagingCache::Unpin(NodeId node, FileId file) {
  std::lock_guard<std::mutex> lock(mu_);
  auto nit = nodes_.find(node);
  if (nit == nodes_.end()) return;
  auto eit = nit->second.entries.find(file);
  if (eit == nit->second.entries.end()) return;
  if (eit->second.pins > 0) --eit->second.pins;
}

void StagingCache::InvalidateNode(NodeId node) {
  std::unique_lock<std::mutex> lock(mu_);
  auto nit = nodes_.find(node);
  if (nit == nodes_.end()) return;
  stats_.invalidated += static_cast<int64_t>(nit->second.entries.size());
  for (const auto& [file, entry] : nit->second.entries) {
    NoteChangeLocked(file, node);
  }
  nodes_.erase(nit);
  Publish(&lock);
}

int StagingCache::MigrateNode(NodeId from, const std::vector<NodeId>& targets) {
  std::unique_lock<std::mutex> lock(mu_);
  auto nit = nodes_.find(from);
  if (nit == nodes_.end() || targets.empty()) return 0;
  NodeBucket& source = nit->second;
  std::vector<FileId> movable;
  for (const auto& [file, entry] : source.entries) {
    if (entry.pins == 0) movable.push_back(file);  // pinned: in use here
  }
  std::sort(movable.begin(), movable.end());
  int moved = 0;
  size_t next_target = 0;
  for (FileId file : movable) {
    const Entry& entry = source.entries.at(file);
    // Round-robin placement, first target with room after LRU eviction.
    bool placed = false;
    for (size_t attempt = 0; attempt < targets.size(); ++attempt) {
      NodeId dst = targets[(next_target + attempt) % targets.size()];
      if (dst == from) continue;
      NodeBucket& sink = nodes_[dst];
      // Same file already there: keep the fresher copy (ours — the
      // drain is the most recent observation of the content).
      auto existing = sink.entries.find(file);
      if (existing != sink.entries.end() && existing->second.pins > 0) {
        continue;  // don't fight a pin
      }
      if (!PutLocked(&sink, dst, file, entry)) continue;
      next_target = (next_target + attempt + 1) % targets.size();
      placed = true;
      break;
    }
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
    source.bytes -= entry.bytes;
    source.entries.erase(file);
    NoteChangeLocked(file, from);
  }
  if (source.entries.empty()) nodes_.erase(from);
  Publish(&lock);
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
