#include "src/core/scheduler.h"

#include <algorithm>

#include "src/common/logging.h"

namespace hiway {

// ---------------------------------------------------------------- FCFS ----

void FcfsScheduler::EnqueueReady(const TaskSpec& task) {
  queue_.push_back(task.id);
}

ContainerRequest FcfsScheduler::RequestFor(const TaskSpec& task) {
  ContainerRequest r;
  r.vcores = task.vcores;
  r.memory_mb = task.memory_mb;
  return r;
}

std::optional<TaskId> FcfsScheduler::SelectTask(NodeId node) {
  (void)node;
  if (queue_.empty()) return std::nullopt;
  TaskId id = queue_.front();
  queue_.pop_front();
  return id;
}

void FcfsScheduler::RemoveTask(TaskId id) {
  queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
}

// ---------------------------------------------------------- data-aware ----

namespace {

// The scan's fraction, computed the one way the index and the pick share.
double Fraction(int64_t local, int64_t total) {
  return total > 0 ? static_cast<double>(local) / static_cast<double>(total)
                   : 0.0;
}

// Bytes on `node` in a list sorted by node.
int64_t BytesOn(const std::vector<std::pair<NodeId, int64_t>>& local,
                NodeId node) {
  auto it = std::lower_bound(
      local.begin(), local.end(), node,
      [](const std::pair<NodeId, int64_t>& e, NodeId n) { return e.first < n; });
  return it != local.end() && it->first == node ? it->second : 0;
}

// The entry for `node` in a dense per-node scratch array, which grows on
// demand and is all zero between uses.
int64_t& Slot(std::vector<int64_t>* bytes, NodeId node) {
  size_t n = static_cast<size_t>(node);
  if (n >= bytes->size()) bytes->resize(n + 1, 0);
  return (*bytes)[n];
}

}  // namespace

DataAwareScheduler::~DataAwareScheduler() {
  for (size_t i = head_; i < fifo_.size(); ++i) {
    if (fifo_[i].live) WatchInputs(first_seq_ + i, false);
  }
}

std::vector<FileId> DataAwareScheduler::InternInputs(
    const TaskSpec& task) const {
  std::vector<FileId> ids;
  ids.reserve(task.input_files.size());
  for (const std::string& path : task.input_files) {
    ids.push_back(dfs_->Intern(path));
  }
  return ids;
}

void DataAwareScheduler::EnqueueReady(const TaskSpec& task) {
  Enqueue(task.id, InternInputs(task));
}

void DataAwareScheduler::EnqueueReadyInterned(
    const TaskSpec& task, const std::vector<FileId>& inputs) {
  Enqueue(task.id, inputs);
}

void DataAwareScheduler::Measure(const std::vector<FileId>& inputs,
                                 int64_t* total,
                                 std::vector<NodeBytes>* local) {
  *total = 0;
  for (FileId id : inputs) {
    int64_t size = dfs_->SizeOf(id);
    if (size >= 0) *total += size;
    // The file's bytes per node: its block replicas, or a fresh staged
    // copy where that is larger. A staged copy only counts while it
    // matches the file's current content.
    for (const DfsBlock& block : dfs_->BlocksOf(id)) {
      for (NodeId node : block.replicas) {
        int64_t& bytes = Slot(&file_bytes_, node);
        if (bytes == 0 && block.size_bytes > 0) file_nodes_.push_back(node);
        bytes += block.size_bytes;
      }
    }
    if (staging_ != nullptr) {
      staged_.clear();
      staging_->FreshCopies(id, dfs_->ContentIdOf(id), &staged_);
      for (const auto& [node, copy] : staged_) {
        int64_t& bytes = Slot(&file_bytes_, node);
        if (bytes == 0 && copy > 0) file_nodes_.push_back(node);
        bytes = std::max(bytes, copy);
      }
    }
    for (NodeId node : file_nodes_) {
      int64_t& bytes = Slot(&task_bytes_, node);
      if (bytes == 0) task_nodes_.push_back(node);
      bytes += file_bytes_[static_cast<size_t>(node)];
      file_bytes_[static_cast<size_t>(node)] = 0;
    }
    file_nodes_.clear();
  }
  local->clear();
  local->reserve(task_nodes_.size());
  for (NodeId node : task_nodes_) {
    local->emplace_back(node, task_bytes_[static_cast<size_t>(node)]);
    task_bytes_[static_cast<size_t>(node)] = 0;
  }
  task_nodes_.clear();
  std::sort(local->begin(), local->end());
}

int64_t DataAwareScheduler::MeasureOn(const std::vector<FileId>& inputs,
                                      NodeId node) const {
  int64_t local = 0;
  for (FileId id : inputs) {
    int64_t bytes = dfs_->LocalBytesOf(id, node);
    if (staging_ != nullptr) {
      bytes = std::max(
          bytes, staging_->CachedBytes(id, dfs_->ContentIdOf(id), node));
    }
    local += bytes;
  }
  return local;
}

void DataAwareScheduler::Enqueue(TaskId id, std::vector<FileId> inputs) {
  uint64_t seq = first_seq_ + fifo_.size();
  QueuedTask& task = fifo_.emplace_back();
  task.id = id;
  task.live = true;
  task.inputs = std::move(inputs);
  WatchInputs(seq, true);
  Measure(task.inputs, &task.total, &task.local);
  for (const auto& [node, bytes] : task.local) {
    SetCandidate(seq, node, Fraction(bytes, task.total));
  }
  ++queued_;
}

void DataAwareScheduler::WatchInputs(uint64_t seq, bool watch) {
  for (FileId file : At(seq).inputs) {
    if (watch) {
      dfs_->Watch(file, this, seq);
      if (staging_ != nullptr) staging_->Watch(file, this, seq);
    } else {
      dfs_->Unwatch(file, this, seq);
      if (staging_ != nullptr) staging_->Unwatch(file, this, seq);
    }
  }
}

void DataAwareScheduler::SetCandidate(uint64_t seq, NodeId node,
                                      double fraction) {
  size_t n = static_cast<size_t>(node);
  if (n >= candidates_.size()) {
    if (fraction <= 0.0) return;
    candidates_.resize(n + 1);  // a node that joined at run time
  }
  NodeCandidates& list = candidates_[n];
  std::vector<Candidate>& entries = list.entries;
  auto it = !entries.empty() && entries.back().seq < seq
                ? entries.end()  // enqueue appends
                : std::lower_bound(entries.begin(), entries.end(), seq,
                                   [](const Candidate& c, uint64_t s) {
                                     return c.seq < s;
                                   });
  bool found = it != entries.end() && it->seq == seq;
  if (fraction > 0.0) {
    if (!found) {
      if (entries.capacity() == 0) {  // most lists stay short
        entries.reserve(4);
        it = entries.begin();
      }
      entries.insert(it, Candidate{seq, fraction});
    } else {
      if (it->fraction < 0.0) --list.dead;
      it->fraction = fraction;
    }
    return;
  }
  if (!found || it->fraction < 0.0) return;
  it->fraction = -1.0;
  if (++list.dead * 2 > entries.size()) {
    std::erase_if(entries, [](const Candidate& c) { return c.fraction < 0.0; });
    list.dead = 0;
  }
}

std::optional<uint64_t> DataAwareScheduler::SeqOf(TaskId id) const {
  for (size_t i = fifo_.size(); i-- > head_;) {
    if (fifo_[i].live && fifo_[i].id == id) return first_seq_ + i;
  }
  return std::nullopt;
}

void DataAwareScheduler::Depart(uint64_t seq) {
  QueuedTask& task = At(seq);
  for (const auto& [node, bytes] : task.local) SetCandidate(seq, node, 0.0);
  WatchInputs(seq, false);
  task.live = false;
  task.inputs = std::vector<FileId>();
  task.local = std::vector<NodeBytes>();
  --queued_;
  while (head_ < fifo_.size() && !fifo_[head_].live) ++head_;
  if (head_ * 2 > fifo_.size()) {  // compact the departed prefix
    fifo_.erase(fifo_.begin(), fifo_.begin() + static_cast<ptrdiff_t>(head_));
    first_seq_ += head_;
    head_ = 0;
  }
}

void DataAwareScheduler::Remeasure(uint64_t seq) {
  QueuedTask& task = At(seq);
  std::vector<NodeBytes> before = std::move(task.local);
  Measure(task.inputs, &task.total, &task.local);
  for (const auto& [node, bytes] : before) {
    if (BytesOn(task.local, node) == 0) SetCandidate(seq, node, 0.0);
  }
  for (const auto& [node, bytes] : task.local) {
    SetCandidate(seq, node, Fraction(bytes, task.total));
  }
}

void DataAwareScheduler::RemeasureOn(uint64_t seq, NodeId node) {
  QueuedTask& task = At(seq);
  int64_t bytes = MeasureOn(task.inputs, node);
  auto it = std::lower_bound(
      task.local.begin(), task.local.end(), node,
      [](const NodeBytes& e, NodeId n) { return e.first < n; });
  bool found = it != task.local.end() && it->first == node;
  if (bytes > 0 && found) {
    it->second = bytes;
  } else if (bytes > 0) {
    task.local.insert(it, NodeBytes(node, bytes));
  } else if (found) {
    task.local.erase(it);
  }
  SetCandidate(seq, node, Fraction(bytes, task.total));
}

void DataAwareScheduler::OnFileChanged(FileId file, NodeId node,
                                       uint64_t seq) {
  (void)file;  // the task's own inputs are re-read
  if (node == kInvalidNode) {
    Remeasure(seq);  // created, deleted or re-written
  } else {
    RemeasureOn(seq, node);
  }
}

ContainerRequest DataAwareScheduler::RequestFor(const TaskSpec& task) {
  ContainerRequest r;
  r.vcores = task.vcores;
  r.memory_mb = task.memory_mb;
  // Prefer the node with the most input data, but allow any (relaxed
  // locality): the *selection* step re-optimises against the node YARN
  // actually hands us. The AM asks right after EnqueueReady, so the
  // task's list is in the index; any other task is measured here.
  std::vector<NodeBytes> measured;
  const std::vector<NodeBytes>* local = &measured;
  if (std::optional<uint64_t> seq = SeqOf(task.id)) {
    local = &At(*seq).local;
  } else {
    int64_t total = 0;
    Measure(InternInputs(task), &total, &measured);
  }
  int64_t best_bytes = 0;
  for (const auto& [node, bytes] : *local) {
    if (bytes > best_bytes) {  // ascending nodes: the lowest id wins ties
      best_bytes = bytes;
      r.preferred_node = node;
    }
  }
  return r;
}

std::optional<TaskId> DataAwareScheduler::SelectTask(NodeId node) {
  if (queued_ == 0) return std::nullopt;
  // "skims through all tasks pending execution, from which it selects the
  // task with the highest fraction of input data available locally"
  // (Sec. 3.4); ties resolve FIFO. Every fraction is >= 0, so the scan's
  // first visit, the queue head, always becomes its best, and after that
  // no task with fraction 0 can pass `> best + 1e-12`. Seeding with the
  // head and folding over this node's candidates in FIFO order with the
  // same rule therefore picks exactly what the scan picks.
  uint64_t best_seq = first_seq_ + head_;
  const QueuedTask& head = fifo_[head_];
  double best_fraction = Fraction(BytesOn(head.local, node), head.total);
  if (node >= 0 && static_cast<size_t>(node) < candidates_.size()) {
    // Tombstones hold a negative fraction and never pass.
    for (const Candidate& c : candidates_[static_cast<size_t>(node)].entries) {
      if (c.fraction > best_fraction + 1e-12) {
        best_fraction = c.fraction;
        best_seq = c.seq;
      }
    }
  }
  TaskId id = At(best_seq).id;
  Depart(best_seq);
  return id;
}

void DataAwareScheduler::RemoveTask(TaskId id) {
  if (std::optional<uint64_t> seq = SeqOf(id)) Depart(*seq);
}

// ------------------------------------------------------ static policies ---

std::deque<TaskId>& StaticPlacementScheduler::QueueOf(TaskId id) {
  auto it = assignment_.find(id);
  HIWAY_CHECK(it != assignment_.end());
  return ready_per_node_[it->second];
}

ContainerRequest StaticPlacementScheduler::RequestFor(const TaskSpec& task) {
  ContainerRequest r;
  r.vcores = task.vcores;
  r.memory_mb = task.memory_mb;
  auto it = assignment_.find(task.id);
  HIWAY_CHECK(it != assignment_.end());
  r.preferred_node = it->second;
  r.strict_locality = true;  // static schedules pin their placements
  return r;
}

std::optional<TaskId> StaticPlacementScheduler::SelectTask(NodeId node) {
  auto it = ready_per_node_.find(node);
  if (it == ready_per_node_.end() || it->second.empty()) return std::nullopt;
  TaskId id = it->second.front();
  it->second.pop_front();
  --queued_;
  return id;
}

void StaticPlacementScheduler::RemoveTask(TaskId id) {
  for (auto& [node, queue] : ready_per_node_) {
    size_t before = queue.size();
    queue.erase(std::remove(queue.begin(), queue.end(), id), queue.end());
    queued_ -= before - queue.size();
  }
}

Result<NodeId> StaticPlacementScheduler::AssignedNode(TaskId id) const {
  auto it = assignment_.find(id);
  if (it == assignment_.end()) return Status::NotFound("task not scheduled");
  return it->second;
}

Status RoundRobinScheduler::BuildStaticSchedule(
    const std::vector<TaskSpec>& tasks, const TaskGraph& graph,
    const std::vector<NodeId>& nodes) {
  if (nodes.empty()) {
    return Status::InvalidArgument("round-robin needs at least one node");
  }
  if (!graph.cyclic().empty()) {
    return Status::InvalidArgument("task graph contains a cycle");
  }
  const std::vector<size_t>& order = graph.order();
  for (size_t k = 0; k < order.size(); ++k) {
    assignment_[tasks[order[k]].id] = nodes[k % nodes.size()];
  }
  return Status::OK();
}

void RoundRobinScheduler::EnqueueReady(const TaskSpec& task) {
  QueueOf(task.id).push_back(task.id);
  ++queued_;
}

// ----------------------------------------------------------------- HEFT ---

Status HeftScheduler::BuildStaticSchedule(const std::vector<TaskSpec>& tasks,
                                          const TaskGraph& graph,
                                          const std::vector<NodeId>& nodes) {
  if (nodes.empty()) {
    return Status::InvalidArgument("HEFT needs at least one node");
  }
  if (!graph.cyclic().empty()) {
    return Status::InvalidArgument("task graph contains a cycle");
  }
  const std::vector<size_t>& order = graph.order();

  // rank_u(t) = w̄(t) + max over children of rank_u(child); computed in
  // reverse topological order. w̄ averages the estimates over the
  // schedulable nodes.
  auto mean_estimate = [&](const std::string& signature) {
    double total = 0.0;
    for (NodeId n : nodes) total += estimator_->Estimate(signature, n);
    return total / static_cast<double>(nodes.size());
  };
  std::vector<double> rank(tasks.size(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    double child_rank = 0.0;
    for (size_t child : graph.children(*it)) {
      child_rank = std::max(child_rank, rank[child]);
    }
    rank[*it] = mean_estimate(tasks[*it].signature) + child_rank;
    rank_[tasks[*it].id] = rank[*it];
  }

  // Placement: tasks by decreasing rank onto the node with the earliest
  // estimated finish time. EST respects both the node's accumulated load
  // and the estimated finish times of the task's parents (a parent ranks
  // at least as high, so it is placed first).
  std::vector<size_t> by_rank(order.begin(), order.end());
  std::stable_sort(by_rank.begin(), by_rank.end(),
                   [&rank](size_t a, size_t b) { return rank[a] > rank[b]; });
  std::map<NodeId, double> node_free;
  std::map<NodeId, int> node_tasks;
  for (NodeId n : nodes) {
    node_free[n] = 0.0;
    node_tasks[n] = 0;
  }
  std::vector<double> finish_time(tasks.size(), 0.0);
  for (size_t i : by_rank) {
    const TaskSpec& t = tasks[i];
    double parents_done = 0.0;
    for (size_t parent : graph.parents(i)) {
      parents_done = std::max(parents_done, finish_time[parent]);
    }
    // EFT ties (common while estimates default to zero) break towards the
    // least-loaded node, so exploration spreads over all unobserved
    // machines instead of herding onto one.
    double best_eft = std::numeric_limits<double>::infinity();
    int best_count = std::numeric_limits<int>::max();
    NodeId best_node = nodes.front();
    for (NodeId n : nodes) {
      double est = std::max(node_free[n], parents_done);
      double eft = est + estimator_->Estimate(t.signature, n);
      if (eft < best_eft - 1e-12 ||
          (eft < best_eft + 1e-12 && node_tasks[n] < best_count)) {
        best_eft = eft;
        best_count = node_tasks[n];
        best_node = n;
      }
    }
    assignment_[t.id] = best_node;
    node_free[best_node] = best_eft;
    ++node_tasks[best_node];
    finish_time[i] = best_eft;
  }
  return Status::OK();
}

void HeftScheduler::EnqueueReady(const TaskSpec& task) {
  // Keep the per-node queue ordered by decreasing rank so critical tasks
  // launch first.
  auto& queue = QueueOf(task.id);
  double r = rank_[task.id];
  auto pos = std::find_if(queue.begin(), queue.end(), [this, r](TaskId t) {
    return rank_.at(t) < r;
  });
  queue.insert(pos, task.id);
  ++queued_;
}

Result<double> HeftScheduler::UpwardRank(TaskId id) const {
  auto it = rank_.find(id);
  if (it == rank_.end()) return Status::NotFound("task not ranked");
  return it->second;
}

// ----------------------------------------------------------- online MCT ---

void OnlineMctScheduler::EnqueueReady(const TaskSpec& task) {
  queue_.push_back(task);
}

ContainerRequest OnlineMctScheduler::RequestFor(const TaskSpec& task) {
  ContainerRequest r;
  r.vcores = task.vcores;
  r.memory_mb = task.memory_mb;
  // Prefer the node with the best runtime estimate, relaxed so any free
  // node may still serve the request.
  double best = std::numeric_limits<double>::infinity();
  for (NodeId n = 0; n < num_nodes_; ++n) {
    if (!estimator_->HasObservation(task.signature, n)) continue;
    double est = estimator_->Estimate(task.signature, n);
    if (est < best) {
      best = est;
      r.preferred_node = n;
    }
  }
  return r;
}

std::optional<TaskId> OnlineMctScheduler::SelectTask(NodeId node) {
  if (queue_.empty()) return std::nullopt;
  // Pick the task for which this node is comparatively strongest:
  // minimise estimate(sig, node) / mean(sig). Unobserved pairs score 0
  // (optimistic exploration, matching the estimator's default); overall
  // ties resolve FIFO.
  double best_score = std::numeric_limits<double>::infinity();
  size_t best_index = 0;
  for (size_t i = 0; i < queue_.size(); ++i) {
    const TaskSpec& task = queue_[i];
    double mean = estimator_->MeanEstimate(task.signature, num_nodes_);
    double score;
    if (!estimator_->HasObservation(task.signature, node) || mean <= 0.0) {
      score = 0.0;
    } else {
      score = estimator_->Estimate(task.signature, node) / mean;
    }
    if (score < best_score - 1e-12) {
      best_score = score;
      best_index = i;
    }
  }
  if (best_score > decline_threshold_ &&
      declines_since_dispatch_ < num_nodes_) {
    // This node is comparatively terrible for everything we have queued;
    // decline the container (the driver re-requests elsewhere). The
    // decline budget guarantees progress even if every node looks bad.
    ++declines_since_dispatch_;
    return std::nullopt;
  }
  declines_since_dispatch_ = 0;
  TaskId id = queue_[best_index].id;
  queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(best_index));
  return id;
}

void OnlineMctScheduler::RemoveTask(TaskId id) {
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [id](const TaskSpec& t) { return t.id == id; }),
               queue_.end());
}

// -------------------------------------------------------------- factory ---

Result<std::unique_ptr<WorkflowScheduler>> MakeScheduler(
    const std::string& policy, Dfs* dfs, const RuntimeEstimator* estimator,
    StagingCache* staging) {
  if (policy == "fcfs") {
    return std::unique_ptr<WorkflowScheduler>(new FcfsScheduler());
  }
  if (policy == "data-aware") {
    if (dfs == nullptr) {
      return Status::InvalidArgument("data-aware scheduling requires a DFS");
    }
    return std::unique_ptr<WorkflowScheduler>(
        new DataAwareScheduler(dfs, staging));
  }
  if (policy == "round-robin") {
    return std::unique_ptr<WorkflowScheduler>(new RoundRobinScheduler());
  }
  if (policy == "heft") {
    if (estimator == nullptr) {
      return Status::InvalidArgument("HEFT requires a runtime estimator");
    }
    return std::unique_ptr<WorkflowScheduler>(new HeftScheduler(estimator));
  }
  if (policy == "online-mct") {
    if (estimator == nullptr || dfs == nullptr) {
      return Status::InvalidArgument(
          "online-mct requires a runtime estimator and a cluster");
    }
    return std::unique_ptr<WorkflowScheduler>(
        new OnlineMctScheduler(estimator, dfs->cluster()->num_nodes()));
  }
  return Status::InvalidArgument("unknown scheduling policy: " + policy);
}

}  // namespace hiway
