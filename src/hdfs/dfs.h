// Simulated HDFS: block-structured immutable files with replicated
// placement across cluster nodes, locality metadata for data-aware
// scheduling, and flow-based data movement for reads and pipelined
// replicated writes.
//
// Only the behaviour Hi-WAY depends on is modelled: block locations and
// sizes (for the data-aware scheduler), replication (for fault tolerance),
// and the cost of moving bytes between disks and across the switch.

#ifndef HIWAY_HDFS_DFS_H_
#define HIWAY_HDFS_DFS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/flat_hash.h"
#include "src/common/random.h"
#include "src/common/result.h"
#include "src/sim/cluster.h"

namespace hiway {

struct DfsOptions {
  /// Number of replicas per block (HDFS default 3, clamped to the cluster
  /// size).
  int replication = 3;
  /// Block size in bytes (HDFS default 128 MiB).
  int64_t block_size_bytes = 128LL * 1024 * 1024;
  /// Seed for randomized replica placement.
  uint64_t seed = 7;
  /// Nodes below this id run no DataNode (dedicated master VMs store no
  /// HDFS blocks).
  NodeId first_datanode = 0;
  /// Cluster-wide storage capacity in raw (replica-weighted) bytes;
  /// 0 = unlimited. A write or ingest that would push the total stored
  /// bytes past this limit fails with ResourceExhausted — the condition
  /// intermediate-data GC (src/gc/, docs/storage-model.md) exists to
  /// relieve.
  int64_t capacity_bytes = 0;
};

/// Dense handle of a DFS path (Dfs::Intern). A path keeps its id for the
/// lifetime of the Dfs: Delete leaves the id's slot absent, and
/// re-creating the path fills the same slot again.
using FileId = int32_t;

/// One replicated block of a file.
struct DfsBlock {
  int64_t size_bytes = 0;
  /// Nodes currently holding a replica (distinct, possibly fewer than the
  /// target replication after node failures).
  std::vector<NodeId> replicas;
};

/// NameNode-side metadata of one file.
struct DfsFileInfo {
  std::string path;
  int64_t size_bytes = 0;
  std::vector<DfsBlock> blocks;
  /// External objects (e.g. the 1000-Genomes S3 bucket in Sec. 4.1) have
  /// no HDFS replicas; reads stream through the cluster's S3 uplink.
  bool external = false;
  /// Content fingerprint standing in for a checksum of the bytes. The
  /// simulator stores sizes, not data, so the fingerprint is derived from
  /// (path, size, per-path write generation): re-writing a path — even with
  /// the same size — yields a new fingerprint, which is the conservative
  /// choice for result-cache keys. Deterministic across process restarts
  /// (same ingest sequence -> same ids), so a persisted cache index stays
  /// resolvable.
  uint64_t content_id = 0;
};

/// Cumulative counters, used for master-load accounting (Fig. 6) and for
/// quantifying locality wins (Fig. 4).
struct DfsCounters {
  int64_t metadata_ops = 0;
  int64_t blocks_read_local = 0;
  int64_t blocks_read_remote = 0;
  int64_t bytes_read_local = 0;
  int64_t bytes_read_remote = 0;
  int64_t bytes_written = 0;
  int64_t blocks_re_replicated = 0;
  /// Raw (replica-weighted) bytes freed by Delete() over the lifetime.
  int64_t bytes_deleted = 0;
  /// Files removed by Delete().
  int64_t files_deleted = 0;
  /// High-water mark of total stored raw bytes (the cluster's realised
  /// storage footprint; docs/storage-model.md).
  int64_t peak_footprint = 0;
  /// Writes/ingests refused because they would exceed capacity_bytes.
  int64_t capacity_rejections = 0;
};

class Dfs {
 public:
  /// Told when a watched file changes in a way that moves its locality:
  /// it is created, deleted or re-written, or it gains or loses a
  /// replica (Dfs::Watch) or a staged copy (StagingCache::Watch).
  class FileWatcher {
   public:
    virtual ~FileWatcher() = default;
    /// `file`, watched under `cookie`, changed on `node` alone; on any
    /// node, and perhaps in size and content, when `node` is
    /// kInvalidNode. A watcher must not watch or unwatch from inside
    /// this call.
    virtual void OnFileChanged(FileId file, NodeId node, uint64_t cookie) = 0;
  };

  /// Per-file watch lists threaded through one node pool, so watching
  /// allocates nothing once the pool has grown. Dfs and StagingCache each
  /// keep one; a file nobody watches costs one hash miss.
  class WatchTable {
   public:
    void Add(FileId file, FileWatcher* watcher, uint64_t cookie);
    /// Drops one watch added with the same arguments.
    void Remove(FileId file, FileWatcher* watcher, uint64_t cookie);
    bool Watched(FileId file) const { return heads_.contains(file); }
    /// Calls fn(watcher, cookie) for each watch on `file`; fn must not
    /// add or remove watches.
    template <typename Fn>
    void ForEach(FileId file, Fn&& fn) const {
      auto it = heads_.find(file);
      if (it == heads_.end()) return;
      for (int32_t n = it->second; n >= 0;) {
        const Node& node = nodes_[static_cast<size_t>(n)];
        fn(node.watcher, node.cookie);
        n = node.next;
      }
    }

   private:
    struct Node {
      FileWatcher* watcher = nullptr;
      uint64_t cookie = 0;
      int32_t next = -1;  // the file's next watch, or the next free node
    };
    FlatHashMap<FileId, int32_t> heads_;  // watched files only
    std::vector<Node> nodes_;
    int32_t free_ = -1;
  };

  Dfs(Cluster* cluster, DfsOptions options);
  Dfs(const Dfs&) = delete;
  Dfs& operator=(const Dfs&) = delete;

  // ---- Metadata operations (instantaneous; counted) --------------------

  bool Exists(const std::string& path) const;

  Result<DfsFileInfo> Stat(const std::string& path) const;

  Status Delete(const std::string& path);

  /// Creates metadata for a pre-loaded file without moving data: replicas
  /// are placed per policy. Used to stage workflow input. If
  /// `favored_node` is given, the first replica lands there (like an HDFS
  /// write from that node).
  Status IngestFile(const std::string& path, int64_t size_bytes,
                    std::optional<NodeId> favored_node = std::nullopt);

  /// Registers an external (S3-hosted) object: readable from any node via
  /// the cluster's S3 uplink, never local to any node. Requires the
  /// cluster to have an S3 resource; a negative size is InvalidArgument.
  Status RegisterExternalFile(const std::string& path, int64_t size_bytes);

  /// Bytes of `path` that have a replica on `node` — the quantity the
  /// data-aware scheduler maximises.
  int64_t LocalBytes(const std::string& path, NodeId node) const;

  /// Content fingerprint of `path` (see DfsFileInfo::content_id);
  /// 0 when the file does not exist. Not counted as a metadata op: every
  /// caller pairs it with a Stat/Exists that already is.
  uint64_t ContentId(const std::string& path) const;

  /// All file paths currently in the namespace, sorted.
  std::vector<std::string> ListFiles() const;

  // ---- Interned ids (uncounted; the data-aware scheduler's index) ------
  //
  // The id queries are array reads, not NameNode RPCs: the AM interns a
  // task's inputs once, at admission, and the scheduler measures them by
  // id when the task becomes ready and again when a watched input
  // changes, without a path lookup or a DfsFileInfo copy.

  /// The id of `path`, giving it an absent slot the first time it is
  /// seen. Not counted: it creates no file.
  FileId Intern(const std::string& path);

  /// The path `id` was interned from.
  const std::string& PathOf(FileId id) const;

  /// Size of the file in slot `id`; -1 while the slot is absent.
  int64_t SizeOf(FileId id) const;

  /// Bytes of file `id` with a replica on `node` (0 while absent).
  int64_t LocalBytesOf(FileId id, NodeId node) const;

  /// Content fingerprint of file `id` (0 while absent).
  uint64_t ContentIdOf(FileId id) const;

  /// Blocks of file `id` with their replicas (empty while absent).
  const std::vector<DfsBlock>& BlocksOf(FileId id) const;

  // ---- Change notifications (uncounted) ---------------------------------
  //
  // Only watched files keep a watch list, so a change to any other file
  // costs one hash miss. Create, Delete, KillNode, the rescue pass of
  // DecommissionNode and ReReplicate notify, after their change is
  // complete.

  /// Tells `watcher` about every later change to file `id`, handing back
  /// `cookie` (the data-aware scheduler watches once per queued task
  /// that reads the file, with the task as cookie). Each watch is told
  /// once per change; a watcher drops its watches before it is
  /// destroyed.
  void Watch(FileId id, FileWatcher* watcher, uint64_t cookie);
  /// Drops one watch made with the same arguments.
  void Unwatch(FileId id, FileWatcher* watcher, uint64_t cookie);

  // ---- Data operations (asynchronous; consume simulated bandwidth) -----

  /// Stages the file onto `node`'s local disk: local blocks are read from
  /// the local disk, remote blocks are fetched from a replica over the
  /// switch. `done` fires when every block has arrived.
  void ReadToNode(const std::string& path, NodeId node,
                  std::function<void(Status)> done);

  /// Writes a new `size_bytes` file from `node`, pipelining each block to
  /// `replication` replicas (first replica local, as in HDFS). `done`
  /// fires when the last block is fully replicated.
  void WriteFromNode(const std::string& path, int64_t size_bytes, NodeId node,
                     std::function<void(Status)> done);

  // ---- Failure handling -------------------------------------------------

  /// Drops every replica stored on `node` (simulates a DataNode crash).
  /// Files that lose all replicas of some block become unreadable.
  void KillNode(NodeId node);

  /// Gracefully retires `node`'s DataNode: blocks for which it holds the
  /// SOLE replica are first copied to another live node (counted as
  /// re-replications), then the node's replicas are dropped as in
  /// KillNode. Guarantees zero data loss — follow with ReReplicate() to
  /// restore full target replication. Elastic scale-in and warned spot
  /// revocations use this path (docs/elastic-cluster.md).
  void DecommissionNode(NodeId node);

  /// True if every block of every file still has >= 1 replica.
  bool AllFilesReadable() const;

  /// True if `path` exists and every block has >= 1 replica (external
  /// files are always readable). Not counted as a metadata op; the
  /// result cache calls this per audit sweep.
  bool FileReadable(const std::string& path) const;

  /// Restores the target replication of under-replicated blocks by copying
  /// from surviving replicas (metadata-level; instantaneous, counted).
  void ReReplicate();

  /// Fault-injection hook consulted once per ReadToNode of an existing
  /// file. Returning true fails that read with Unavailable — a transient
  /// error; a retried attempt may succeed. nullptr disables the hook.
  void SetReadFaultHook(
      std::function<bool(const std::string& path, NodeId node)> hook) {
    read_fault_hook_ = std::move(hook);
  }

  const DfsCounters& counters() const { return counters_; }
  const DfsOptions& options() const { return options_; }
  Cluster* cluster() const { return cluster_; }

  /// Total bytes of replicas currently stored on `node`. O(1): the DFS
  /// keeps incremental per-node byte accounting (docs/storage-model.md).
  int64_t StoredBytes(NodeId node) const;

  /// Total raw (replica-weighted) bytes stored across all nodes. O(1).
  int64_t TotalStoredBytes() const { return total_stored_bytes_; }

 private:
  /// Adds (`sign` = +1) or removes (-1) every replica of `info` from the
  /// per-node and cluster byte accounting, updating the peak watermark.
  void AccountReplicas(const DfsFileInfo& info, int sign);
  /// Single-replica accounting delta (replica churn: kills, rescues,
  /// re-replication).
  void AccountReplica(NodeId node, int64_t size_bytes, int sign);
  /// ResourceExhausted when storing `size_bytes` at `replication` would
  /// exceed capacity_bytes; OK otherwise (and always OK when unlimited).
  Status CheckCapacity(const std::string& path, int64_t size_bytes,
                       int replication);
  /// Picks `count` distinct replica nodes, honouring the favored first
  /// node when alive.
  std::vector<NodeId> PlaceReplicas(std::optional<NodeId> favored, int count);

  int EffectiveReplication() const;

  /// One interned path. `info.path` is set at intern time; the rest of
  /// `info` is meaningful only while `live`.
  struct FileSlot {
    DfsFileInfo info;
    /// Write generation. Survives Delete(): a deleted-then-rewritten path
    /// must not reuse an old fingerprint.
    uint64_t generation = 0;
    bool live = false;
  };

  /// The live slot of `path`, or nullptr.
  const FileSlot* Find(const std::string& path) const;
  FileSlot* Find(const std::string& path);

  /// Makes `path`'s slot live with `info` (blocks already placed):
  /// stamps the next-generation fingerprint and accounts the replicas.
  void Create(const std::string& path, DfsFileInfo info);

  /// Bytes of `info` with a replica on `node`.
  static int64_t LocalBytesIn(const DfsFileInfo& info, NodeId node);

  /// Tells `id`'s watchers it changed on `node` (kInvalidNode: anywhere).
  void Notify(FileId id, NodeId node) const;
  /// Notify for each (file, node) a replica walk collected.
  void NotifyAll(const std::vector<std::pair<FileId, NodeId>>& changes) const;

  Cluster* cluster_;
  DfsOptions options_;
  mutable DfsCounters counters_;
  Rng rng_;
  /// The namespace: one slot per path ever interned, indexed by FileId
  /// (a deque, so growth never moves a slot).
  std::deque<FileSlot> slots_;
  /// Sorted path index. ListFiles and the replica walks (KillNode,
  /// DecommissionNode, ReReplicate) visit files in this order; the walks
  /// draw from rng_, so the order fixes replica placement. An absent
  /// slot holds no blocks, so the walks pass over it.
  std::map<std::string, FileId> ids_;
  std::set<NodeId> dead_nodes_;
  std::function<bool(const std::string&, NodeId)> read_fault_hook_;
  /// Incremental byte accounting: raw bytes of replicas per node and the
  /// cluster total (StoredBytes/TotalStoredBytes are O(1) lookups, not
  /// namespace scans).
  std::map<NodeId, int64_t> stored_bytes_;
  int64_t total_stored_bytes_ = 0;
  WatchTable watches_;
};

}  // namespace hiway

#endif  // HIWAY_HDFS_DFS_H_
