// Per-NodeManager staging cache: signature-addressed retention of bytes a
// container already localized onto a node's scratch disk. Hi-WAY (like
// YARN's PRIVATE localization scope) discards a container's staged inputs
// when the container exits; re-running the same pipeline then pays the
// full HDFS fetch again. The staging cache keeps those bytes across
// workflows — a later task that needs the same file *content* on the same
// node skips the stage-in transfer entirely — and the data-aware scheduler
// (src/core/scheduler.cc) ranks cached bytes alongside HDFS block
// locality when placing tasks.
//
// Entries are addressed by (node, FileId of the path) and carry the DFS
// content fingerprint they were staged from (Dfs::ContentId): an input
// that was
// re-ingested or rewritten no longer matches, so stale bytes can never
// serve a task. Each node's set is LRU-evicted under a configurable byte
// budget; entries pinned by a running attempt are never evicted (they are
// physically on disk and in use), so momentary over-budget is possible
// when pins alone exceed the budget — insertions that cannot fit after
// evicting every unpinned entry are rejected instead.
//
// Thread-safe (one mutex): the simulator is effectively single-threaded,
// but stress suites touch deployments from multiple threads.
//
// Watchers (the data-aware scheduler's locality index) hear of every
// staged copy of a watched file that appears, changes or goes away on a
// node: inserts and replacements, evictions, invalidation and migration.
// They are told after the mutex is released, so a watcher may query the
// cache from its callback.

#ifndef HIWAY_CACHE_STAGING_CACHE_H_
#define HIWAY_CACHE_STAGING_CACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/flat_hash.h"
#include "src/hdfs/dfs.h"
#include "src/sim/cluster.h"

namespace hiway {

class Tracer;

struct StagingCacheOptions {
  /// Per-node byte budget; <= 0 means unbounded.
  int64_t node_budget_bytes = 0;
};

struct StagingCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  /// Insertions refused because pinned entries alone filled the budget.
  int64_t rejected = 0;
  /// Entries dropped by InvalidateNode (node loss).
  int64_t invalidated = 0;
  /// Entries moved off a draining node by MigrateNode (elastic scale-in
  /// / warned spot revocation — the bytes survive the node).
  int64_t migrated = 0;
  /// Bytes whose stage-in transfer was skipped thanks to a hit.
  int64_t bytes_served = 0;
};

class StagingCache {
 public:
  explicit StagingCache(StagingCacheOptions options = {});
  StagingCache(const StagingCache&) = delete;
  StagingCache& operator=(const StagingCache&) = delete;

  /// Optional: emits kCache "staging_hit"/"staging_evict" instants.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

  /// Scheduler-facing: bytes of file `file` cached on `node` with the
  /// given (current) content fingerprint; 0 when absent or stale. Does
  /// not touch LRU order — placement scans must not perturb recency.
  int64_t CachedBytes(FileId file, uint64_t content_id, NodeId node) const;

  /// Appends (node, bytes) for every node holding a copy of `file` staged
  /// from content `content_id` (none when 0), ascending by node. Does not
  /// touch LRU order.
  void FreshCopies(FileId file, uint64_t content_id,
                   std::vector<std::pair<NodeId, int64_t>>* out) const;

  /// Tells `watcher` whenever a staged copy of `file` appears, changes or
  /// goes away on some node (Dfs::FileWatcher::OnFileChanged with that
  /// node and `cookie`), as Dfs::Watch does for replicas.
  void Watch(FileId file, Dfs::FileWatcher* watcher, uint64_t cookie);
  /// Drops one watch made with the same arguments.
  void Unwatch(FileId file, Dfs::FileWatcher* watcher, uint64_t cookie);

  /// Stage-in fast path: when `node` holds a fresh copy of `file`, pins
  /// it for the duration of the attempt and returns true (the transfer
  /// is skipped). Counts a miss otherwise.
  bool HitAndPin(NodeId node, FileId file, uint64_t content_id);

  /// Records freshly staged bytes, pinned (the inserting attempt is
  /// using them). Evicts unpinned LRU entries to fit the budget; when
  /// pins alone exceed it the insertion is rejected (counted). An entry
  /// for the same file is replaced (content drift).
  void InsertPinned(NodeId node, FileId file, uint64_t content_id,
                    int64_t bytes);

  /// Releases an attempt's pin; entries become evictable at zero pins.
  /// Unknown (node, file) pairs are ignored (the insert was rejected).
  void Unpin(NodeId node, FileId file);

  /// Drops everything cached on `node` (NodeManager/disk loss).
  void InvalidateNode(NodeId node);

  /// Graceful drain: moves `from`'s unpinned entries round-robin onto
  /// `targets` (evicting LRU entries there to fit; counted as migrated),
  /// drops the ones no target can hold (counted as invalidated), and
  /// leaves pinned entries in place — their attempts are still running
  /// on the draining node and the bucket dies with the node. Entries are
  /// placed in ascending FileId order. Returns the number of entries
  /// migrated. No-op when `targets` is empty.
  int MigrateNode(NodeId from, const std::vector<NodeId>& targets);

  int64_t NodeBytes(NodeId node) const;
  int64_t TotalBytes() const;
  StagingCacheStats stats() const;

 private:
  struct Entry {
    uint64_t content_id = 0;
    int64_t bytes = 0;
    int pins = 0;
    uint64_t tick = 0;  // LRU recency stamp
  };
  struct NodeBucket {
    FlatHashMap<FileId, Entry> entries;
    int64_t bytes = 0;
  };

  /// Evicts unpinned LRU entries of `bucket` other than `keep` until
  /// `extra` more bytes fit the budget; returns false when pinned
  /// entries make that impossible. Caller holds mu_.
  bool EvictToFit(NodeBucket* bucket, NodeId node, int64_t extra, FileId keep);
  /// The one insert: puts `entry` under `file` in `bucket` (`node`'s),
  /// replacing an entry for the same file and carrying its pins over,
  /// after evicting unpinned LRU entries to fit. False, with nothing
  /// replaced, when pinned entries make that impossible. Caller holds
  /// mu_.
  bool PutLocked(NodeBucket* bucket, NodeId node, FileId file, Entry entry);
  /// Queues word for `file`'s watchers that its copy on `node` changed.
  /// Caller holds mu_.
  void NoteChangeLocked(FileId file, NodeId node);
  /// Releases `lock` (on mu_), then delivers the queued words.
  void Publish(std::unique_lock<std::mutex>* lock);

  struct Notice {
    Dfs::FileWatcher* watcher;
    uint64_t cookie;
    FileId file;
    NodeId node;
  };

  StagingCacheOptions options_;
  Tracer* tracer_ = nullptr;
  mutable std::mutex mu_;
  std::map<NodeId, NodeBucket> nodes_;
  uint64_t tick_ = 0;
  StagingCacheStats stats_;
  Dfs::WatchTable watches_;
  std::vector<Notice> notices_;  // queued under mu_ until Publish
};

}  // namespace hiway

#endif  // HIWAY_CACHE_STAGING_CACHE_H_
