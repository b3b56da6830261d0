#include "src/hdfs/dfs.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace hiway {

namespace {
constexpr double kBytesPerMb = 1024.0 * 1024.0;
}

Dfs::Dfs(Cluster* cluster, DfsOptions options)
    : cluster_(cluster), options_(options), rng_(options.seed) {
  HIWAY_CHECK(options_.replication >= 1);
  HIWAY_CHECK(options_.block_size_bytes > 0);
}

int Dfs::EffectiveReplication() const {
  int alive = 0;
  for (NodeId n = options_.first_datanode; n < cluster_->num_nodes(); ++n) {
    if (dead_nodes_.find(n) == dead_nodes_.end()) ++alive;
  }
  return std::max(1, std::min(options_.replication, alive));
}

void Dfs::AccountReplica(NodeId node, int64_t size_bytes, int sign) {
  stored_bytes_[node] += sign * size_bytes;
  total_stored_bytes_ += sign * size_bytes;
  if (total_stored_bytes_ > counters_.peak_footprint) {
    counters_.peak_footprint = total_stored_bytes_;
  }
}

void Dfs::AccountReplicas(const DfsFileInfo& info, int sign) {
  if (info.external) return;  // S3 objects consume no cluster storage
  for (const DfsBlock& block : info.blocks) {
    for (NodeId replica : block.replicas) {
      AccountReplica(replica, block.size_bytes, sign);
    }
  }
}

Status Dfs::CheckCapacity(const std::string& path, int64_t size_bytes,
                          int replication) {
  if (options_.capacity_bytes <= 0) return Status::OK();
  int64_t projected = size_bytes * static_cast<int64_t>(replication);
  if (total_stored_bytes_ + projected <= options_.capacity_bytes) {
    return Status::OK();
  }
  ++counters_.capacity_rejections;
  return Status::ResourceExhausted(StrFormat(
      "DFS capacity exceeded writing %s: %lld raw bytes stored + %lld "
      "requested > %lld capacity",
      path.c_str(), static_cast<long long>(total_stored_bytes_),
      static_cast<long long>(projected),
      static_cast<long long>(options_.capacity_bytes)));
}

const Dfs::FileSlot* Dfs::Find(const std::string& path) const {
  auto it = ids_.find(path);
  if (it == ids_.end()) return nullptr;
  const FileSlot& slot = slots_[static_cast<size_t>(it->second)];
  return slot.live ? &slot : nullptr;
}

Dfs::FileSlot* Dfs::Find(const std::string& path) {
  return const_cast<FileSlot*>(std::as_const(*this).Find(path));
}

FileId Dfs::Intern(const std::string& path) {
  auto [it, inserted] =
      ids_.try_emplace(path, static_cast<FileId>(slots_.size()));
  if (inserted) slots_.emplace_back().info.path = path;
  return it->second;
}

const std::string& Dfs::PathOf(FileId id) const {
  return slots_[static_cast<size_t>(id)].info.path;
}

int64_t Dfs::SizeOf(FileId id) const {
  const FileSlot& slot = slots_[static_cast<size_t>(id)];
  return slot.live ? slot.info.size_bytes : -1;
}

int64_t Dfs::LocalBytesOf(FileId id, NodeId node) const {
  const FileSlot& slot = slots_[static_cast<size_t>(id)];
  return slot.live ? LocalBytesIn(slot.info, node) : 0;
}

uint64_t Dfs::ContentIdOf(FileId id) const {
  const FileSlot& slot = slots_[static_cast<size_t>(id)];
  return slot.live ? slot.info.content_id : 0;
}

const std::vector<DfsBlock>& Dfs::BlocksOf(FileId id) const {
  // Delete drops an absent slot's blocks, and a never-created slot has
  // none.
  return slots_[static_cast<size_t>(id)].info.blocks;
}

void Dfs::WatchTable::Add(FileId file, FileWatcher* watcher,
                          uint64_t cookie) {
  int32_t n = free_;
  if (n >= 0) {
    free_ = nodes_[static_cast<size_t>(n)].next;
  } else {
    n = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  int32_t& head = heads_.emplace(file, -1).first->second;
  nodes_[static_cast<size_t>(n)] = Node{watcher, cookie, head};
  head = n;
}

void Dfs::WatchTable::Remove(FileId file, FileWatcher* watcher,
                             uint64_t cookie) {
  auto it = heads_.find(file);
  if (it == heads_.end()) return;
  for (int32_t* link = &it->second; *link >= 0;
       link = &nodes_[static_cast<size_t>(*link)].next) {
    Node& node = nodes_[static_cast<size_t>(*link)];
    if (node.watcher != watcher || node.cookie != cookie) continue;
    int32_t n = *link;
    *link = node.next;
    node.next = free_;
    free_ = n;
    if (it->second < 0) heads_.erase(file);
    return;
  }
}

void Dfs::Watch(FileId id, FileWatcher* watcher, uint64_t cookie) {
  watches_.Add(id, watcher, cookie);
}

void Dfs::Unwatch(FileId id, FileWatcher* watcher, uint64_t cookie) {
  watches_.Remove(id, watcher, cookie);
}

void Dfs::Notify(FileId id, NodeId node) const {
  watches_.ForEach(id, [id, node](FileWatcher* watcher, uint64_t cookie) {
    watcher->OnFileChanged(id, node, cookie);
  });
}

void Dfs::NotifyAll(
    const std::vector<std::pair<FileId, NodeId>>& changes) const {
  for (const auto& [id, node] : changes) Notify(id, node);
}

void Dfs::Create(const std::string& path, DfsFileInfo info) {
  FileId id = Intern(path);
  FileSlot& slot = slots_[static_cast<size_t>(id)];
  ++slot.generation;
  uint64_t h = Fnv1a64(path);
  h = Fnv1a64(StrFormat("|%lld|%llu", static_cast<long long>(info.size_bytes),
                        static_cast<unsigned long long>(slot.generation)),
              h);
  // 0 is reserved for "no such file".
  info.content_id = h == 0 ? 1 : h;
  info.path = std::move(slot.info.path);
  AccountReplicas(info, +1);
  slot.info = std::move(info);
  slot.live = true;
  Notify(id, kInvalidNode);
}

bool Dfs::Exists(const std::string& path) const {
  ++counters_.metadata_ops;
  return Find(path) != nullptr;
}

Result<DfsFileInfo> Dfs::Stat(const std::string& path) const {
  ++counters_.metadata_ops;
  const FileSlot* slot = Find(path);
  if (slot == nullptr) {
    return Status::NotFound("no such file in DFS: " + path);
  }
  return slot->info;
}

Status Dfs::Delete(const std::string& path) {
  ++counters_.metadata_ops;
  auto it = ids_.find(path);
  FileSlot* slot =
      it == ids_.end() ? nullptr : &slots_[static_cast<size_t>(it->second)];
  if (slot == nullptr || !slot->live) {
    return Status::NotFound("no such file in DFS: " + path);
  }
  if (!slot->info.external) {
    int64_t raw = 0;
    for (const DfsBlock& block : slot->info.blocks) {
      raw += block.size_bytes * static_cast<int64_t>(block.replicas.size());
    }
    counters_.bytes_deleted += raw;
  }
  ++counters_.files_deleted;
  AccountReplicas(slot->info, -1);
  slot->live = false;
  // The slot and its id stay; the block list and its storage go.
  slot->info.blocks = std::vector<DfsBlock>();
  Notify(it->second, kInvalidNode);
  return Status::OK();
}

std::vector<NodeId> Dfs::PlaceReplicas(std::optional<NodeId> favored,
                                       int count) {
  std::vector<NodeId> alive;
  alive.reserve(static_cast<size_t>(cluster_->num_nodes()));
  for (NodeId n = options_.first_datanode; n < cluster_->num_nodes(); ++n) {
    if (dead_nodes_.find(n) == dead_nodes_.end()) alive.push_back(n);
  }
  HIWAY_CHECK(!alive.empty());
  std::vector<NodeId> chosen;
  if (favored.has_value() && *favored >= options_.first_datanode &&
      dead_nodes_.find(*favored) == dead_nodes_.end()) {
    chosen.push_back(*favored);
  }
  // Fisher-Yates style selection of the remaining replicas.
  std::vector<NodeId> pool;
  for (NodeId n : alive) {
    if (chosen.empty() || n != chosen[0]) pool.push_back(n);
  }
  while (static_cast<int>(chosen.size()) < count && !pool.empty()) {
    size_t idx = static_cast<size_t>(rng_.UniformInt(pool.size()));
    chosen.push_back(pool[idx]);
    pool.erase(pool.begin() + static_cast<ptrdiff_t>(idx));
  }
  return chosen;
}

Status Dfs::IngestFile(const std::string& path, int64_t size_bytes,
                       std::optional<NodeId> favored_node) {
  ++counters_.metadata_ops;
  if (size_bytes < 0) {
    return Status::InvalidArgument("negative file size for " + path);
  }
  if (Find(path) != nullptr) {
    return Status::AlreadyExists("file already in DFS: " + path);
  }
  int rep = EffectiveReplication();
  Status cap = CheckCapacity(path, size_bytes, rep);
  if (!cap.ok()) return cap;
  DfsFileInfo info;
  info.size_bytes = size_bytes;
  int64_t remaining = size_bytes;
  do {
    DfsBlock block;
    block.size_bytes = std::min(remaining, options_.block_size_bytes);
    block.replicas = PlaceReplicas(favored_node, rep);
    info.blocks.push_back(std::move(block));
    remaining -= info.blocks.back().size_bytes;
  } while (remaining > 0);
  Create(path, std::move(info));
  return Status::OK();
}

Status Dfs::RegisterExternalFile(const std::string& path,
                                 int64_t size_bytes) {
  ++counters_.metadata_ops;
  if (!cluster_->has_s3()) {
    return Status::FailedPrecondition(
        "cluster has no S3 uplink for external file " + path);
  }
  if (size_bytes < 0) {
    return Status::InvalidArgument("negative file size for " + path);
  }
  if (Find(path) != nullptr) {
    return Status::AlreadyExists("file already in DFS: " + path);
  }
  DfsFileInfo info;
  info.size_bytes = size_bytes;
  info.external = true;
  Create(path, std::move(info));
  return Status::OK();
}

uint64_t Dfs::ContentId(const std::string& path) const {
  const FileSlot* slot = Find(path);
  return slot == nullptr ? 0 : slot->info.content_id;
}

int64_t Dfs::LocalBytesIn(const DfsFileInfo& info, NodeId node) {
  int64_t total = 0;
  for (const DfsBlock& block : info.blocks) {
    if (std::find(block.replicas.begin(), block.replicas.end(), node) !=
        block.replicas.end()) {
      total += block.size_bytes;
    }
  }
  return total;
}

int64_t Dfs::LocalBytes(const std::string& path, NodeId node) const {
  const FileSlot* slot = Find(path);
  return slot == nullptr ? 0 : LocalBytesIn(slot->info, node);
}

std::vector<std::string> Dfs::ListFiles() const {
  std::vector<std::string> out;
  for (const auto& [path, id] : ids_) {
    if (slots_[static_cast<size_t>(id)].live) out.push_back(path);
  }
  return out;
}

void Dfs::ReadToNode(const std::string& path, NodeId node,
                     std::function<void(Status)> done) {
  ++counters_.metadata_ops;  // block-location lookup
  if (dead_nodes_.find(node) != dead_nodes_.end()) {
    Status st = Status::IoError("reader node is dead");
    cluster_->engine()->ScheduleAfter(
        0.0, [done = std::move(done), st] { done(st); });
    return;
  }
  const FileSlot* slot = Find(path);
  if (slot == nullptr) {
    Status st = Status::NotFound("no such file in DFS: " + path);
    cluster_->engine()->ScheduleAfter(
        0.0, [done = std::move(done), st] { done(st); });
    return;
  }
  if (read_fault_hook_ && read_fault_hook_(path, node)) {
    Status st = Status::Unavailable("transient DFS read error: " + path);
    cluster_->engine()->ScheduleAfter(
        0.0, [done = std::move(done), st] { done(st); });
    return;
  }
  const DfsFileInfo& info = slot->info;
  // Zero-byte files (and metadata-only sentinels) complete immediately.
  if (info.size_bytes == 0) {
    cluster_->engine()->ScheduleAfter(
        0.0, [done = std::move(done)] { done(Status::OK()); });
    return;
  }
  if (info.external) {
    // Stream from the S3-like object store through the node's NIC onto
    // its local disk.
    counters_.bytes_read_remote += info.size_bytes;
    FlowSpec spec;
    spec.resources = cluster_->S3ReadPath(node);
    spec.demand = static_cast<double>(info.size_bytes) / kBytesPerMb;
    spec.on_complete = [done = std::move(done)] { done(Status::OK()); };
    cluster_->net()->StartFlow(std::move(spec));
    return;
  }
  struct ReadState {
    int pending = 0;
    bool delivered = false;
    Status status;
    std::function<void(Status)> done;
    void MaybeFinish() {
      if (pending == 0 && !delivered) {
        delivered = true;
        done(status);
      }
    }
  };
  auto state = std::make_shared<ReadState>();
  state->done = std::move(done);
  for (const DfsBlock& block : info.blocks) {
    if (block.replicas.empty()) {
      Status st = Status::IoError("block lost (all replicas dead): " + path);
      cluster_->engine()->ScheduleAfter(
          0.0, [state, st] {
            if (state->status.ok()) state->status = st;
            state->MaybeFinish();
          });
      continue;
    }
    bool local = std::find(block.replicas.begin(), block.replicas.end(),
                           node) != block.replicas.end();
    FlowSpec spec;
    if (local) {
      ++counters_.blocks_read_local;
      counters_.bytes_read_local += block.size_bytes;
      spec.resources = cluster_->LocalDiskPath(node);
    } else {
      ++counters_.blocks_read_remote;
      counters_.bytes_read_remote += block.size_bytes;
      // Fetch from a deterministic replica choice (first alive replica).
      NodeId src = block.replicas.front();
      spec.resources = cluster_->RemoteTransferPath(src, node);
    }
    spec.demand = static_cast<double>(block.size_bytes) / kBytesPerMb;
    ++state->pending;
    spec.on_complete = [state] {
      --state->pending;
      state->MaybeFinish();
    };
    cluster_->net()->StartFlow(std::move(spec));
  }
  // If all blocks were lost, the scheduled error callbacks deliver the
  // status (exactly once, guarded by `delivered`).
}

void Dfs::WriteFromNode(const std::string& path, int64_t size_bytes,
                        NodeId node, std::function<void(Status)> done) {
  ++counters_.metadata_ops;
  if (dead_nodes_.find(node) != dead_nodes_.end()) {
    // A crashed DataNode cannot push a write pipeline; this also stops
    // "ghost" attempts of lost containers from publishing outputs.
    Status st = Status::IoError("writer node is dead");
    cluster_->engine()->ScheduleAfter(
        0.0, [done = std::move(done), st] { done(st); });
    return;
  }
  if (size_bytes < 0) {
    Status st = Status::InvalidArgument("negative file size for " + path);
    cluster_->engine()->ScheduleAfter(
        0.0, [done = std::move(done), st] { done(st); });
    return;
  }
  if (Find(path) != nullptr) {
    Status st = Status::AlreadyExists("file already in DFS: " + path);
    cluster_->engine()->ScheduleAfter(
        0.0, [done = std::move(done), st] { done(st); });
    return;
  }
  int rep = EffectiveReplication();
  Status cap = CheckCapacity(path, size_bytes, rep);
  if (!cap.ok()) {
    cluster_->engine()->ScheduleAfter(
        0.0, [done = std::move(done), cap] { done(cap); });
    return;
  }
  counters_.bytes_written += size_bytes;
  // Build metadata up front (placement is decided at write start, like an
  // HDFS client asking the NameNode for a pipeline).
  DfsFileInfo info;
  info.size_bytes = size_bytes;
  int64_t remaining = size_bytes;
  struct WriteState {
    int pending = 0;
    std::function<void(Status)> done;
  };
  auto state = std::make_shared<WriteState>();
  state->done = std::move(done);
  std::vector<FlowSpec> flows;
  do {
    DfsBlock block;
    block.size_bytes = std::min(remaining, options_.block_size_bytes);
    remaining -= block.size_bytes;
    block.replicas = PlaceReplicas(node, rep);
    // Pipelined replication: one flow crossing the writer's disk plus the
    // network path to every remote replica.
    FlowSpec spec;
    std::vector<ResourceId> resources;
    bool writer_is_replica =
        std::find(block.replicas.begin(), block.replicas.end(), node) !=
        block.replicas.end();
    if (writer_is_replica) {
      resources.push_back(cluster_->disk(node));
    }
    bool any_remote = false;
    for (NodeId replica : block.replicas) {
      if (replica == node) continue;
      any_remote = true;
      resources.push_back(cluster_->nic(replica));
      resources.push_back(cluster_->disk(replica));
    }
    if (any_remote) {
      resources.push_back(cluster_->nic(node));
      resources.push_back(cluster_->switch_resource());
    }
    if (resources.empty()) resources.push_back(cluster_->disk(node));
    spec.resources = std::move(resources);
    spec.demand =
        std::max(static_cast<double>(block.size_bytes) / kBytesPerMb, 1e-6);
    spec.on_complete = [state] {
      if (--state->pending == 0) state->done(Status::OK());
    };
    flows.push_back(std::move(spec));
    info.blocks.push_back(std::move(block));
  } while (remaining > 0);
  Create(path, std::move(info));
  state->pending = static_cast<int>(flows.size());
  for (FlowSpec& spec : flows) {
    cluster_->net()->StartFlow(std::move(spec));
  }
}

void Dfs::KillNode(NodeId node) {
  dead_nodes_.insert(node);
  auto stored = stored_bytes_.find(node);
  if (stored != stored_bytes_.end()) {
    total_stored_bytes_ -= stored->second;
    stored->second = 0;
  }
  std::vector<std::pair<FileId, NodeId>> changes;
  for (const auto& [path, id] : ids_) {
    bool held = false;
    for (DfsBlock& block : slots_[static_cast<size_t>(id)].info.blocks) {
      auto gone =
          std::remove(block.replicas.begin(), block.replicas.end(), node);
      held |= gone != block.replicas.end();
      block.replicas.erase(gone, block.replicas.end());
    }
    if (held && watches_.Watched(id)) changes.emplace_back(id, node);
  }
  NotifyAll(changes);
}

void Dfs::DecommissionNode(NodeId node) {
  if (dead_nodes_.find(node) != dead_nodes_.end()) return;
  // Rescue pass: every block whose only replica lives on the retiring
  // node gets a copy elsewhere before the replicas are dropped.
  std::vector<std::pair<FileId, NodeId>> changes;
  for (const auto& [path, id] : ids_) {
    for (DfsBlock& block : slots_[static_cast<size_t>(id)].info.blocks) {
      if (block.replicas.size() != 1 || block.replicas[0] != node) continue;
      std::vector<NodeId> pool;
      for (NodeId n = options_.first_datanode; n < cluster_->num_nodes();
           ++n) {
        if (n == node) continue;
        if (dead_nodes_.find(n) == dead_nodes_.end()) pool.push_back(n);
      }
      if (pool.empty()) break;  // nowhere to rescue to
      NodeId dst = pool[static_cast<size_t>(rng_.UniformInt(pool.size()))];
      block.replicas.push_back(dst);
      AccountReplica(dst, block.size_bytes, +1);
      ++counters_.blocks_re_replicated;
      ++counters_.metadata_ops;
      if (watches_.Watched(id)) changes.emplace_back(id, dst);
    }
  }
  KillNode(node);
  NotifyAll(changes);
}

bool Dfs::AllFilesReadable() const {
  for (const FileSlot& slot : slots_) {
    if (!slot.live || slot.info.size_bytes == 0) continue;
    for (const DfsBlock& block : slot.info.blocks) {
      if (block.replicas.empty()) return false;
    }
  }
  return true;
}

bool Dfs::FileReadable(const std::string& path) const {
  const FileSlot* slot = Find(path);
  if (slot == nullptr) return false;
  const DfsFileInfo& info = slot->info;
  if (info.external || info.size_bytes == 0) return true;
  for (const DfsBlock& block : info.blocks) {
    if (block.replicas.empty()) return false;
  }
  return true;
}

void Dfs::ReReplicate() {
  int rep = EffectiveReplication();
  std::vector<std::pair<FileId, NodeId>> changes;
  for (const auto& [path, id] : ids_) {
    for (DfsBlock& block : slots_[static_cast<size_t>(id)].info.blocks) {
      if (block.replicas.empty()) continue;  // unrecoverable
      while (static_cast<int>(block.replicas.size()) < rep) {
        // Choose a new home distinct from current replicas (DataNodes
        // only — master VMs below first_datanode store no blocks).
        std::vector<NodeId> pool;
        for (NodeId n = options_.first_datanode; n < cluster_->num_nodes();
             ++n) {
          if (dead_nodes_.find(n) != dead_nodes_.end()) continue;
          if (std::find(block.replicas.begin(), block.replicas.end(), n) ==
              block.replicas.end()) {
            pool.push_back(n);
          }
        }
        if (pool.empty()) break;
        NodeId dst = pool[static_cast<size_t>(rng_.UniformInt(pool.size()))];
        block.replicas.push_back(dst);
        AccountReplica(dst, block.size_bytes, +1);
        ++counters_.blocks_re_replicated;
        ++counters_.metadata_ops;
        if (watches_.Watched(id)) changes.emplace_back(id, dst);
      }
    }
  }
  NotifyAll(changes);
}

int64_t Dfs::StoredBytes(NodeId node) const {
  auto it = stored_bytes_.find(node);
  return it == stored_bytes_.end() ? 0 : it->second;
}

}  // namespace hiway
