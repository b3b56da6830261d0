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

std::vector<FileId> DataAwareScheduler::InternInputs(const TaskSpec& task) {
  std::vector<FileId> ids;
  ids.reserve(task.input_files.size());
  for (const std::string& path : task.input_files) {
    ids.push_back(dfs_->Intern(path));
  }
  return ids;
}

void DataAwareScheduler::EnqueueReady(const TaskSpec& task) {
  queue_.push_back({task.id, InternInputs(task)});
}

int64_t DataAwareScheduler::EffectiveLocalBytes(FileId id,
                                                NodeId node) const {
  int64_t local = dfs_->LocalBytesOf(id, node);
  if (staging_ != nullptr) {
    // A staged copy only counts while it matches the file's current
    // content; CachedBytes checks the fingerprint and never perturbs
    // the cache's LRU order.
    local = std::max(local,
                     staging_->CachedBytes(id, dfs_->ContentIdOf(id), node));
  }
  return local;
}

ContainerRequest DataAwareScheduler::RequestFor(const TaskSpec& task) {
  ContainerRequest r;
  r.vcores = task.vcores;
  r.memory_mb = task.memory_mb;
  // Prefer the node with the most input data, but allow any (relaxed
  // locality): the *selection* step re-optimises against the node YARN
  // actually hands us.
  std::vector<FileId> inputs = InternInputs(task);
  int64_t best_bytes = -1;
  NodeId best_node = kInvalidNode;
  for (NodeId n = 0; n < dfs_->cluster()->num_nodes(); ++n) {
    int64_t local = 0;
    for (FileId id : inputs) local += EffectiveLocalBytes(id, n);
    if (local > best_bytes) {
      best_bytes = local;
      best_node = n;
    }
  }
  if (best_bytes > 0) r.preferred_node = best_node;
  return r;
}

std::optional<TaskId> DataAwareScheduler::SelectTask(NodeId node) {
  if (queue_.empty()) return std::nullopt;
  // "skims through all tasks pending execution, from which it selects the
  // task with the highest fraction of input data available locally"
  // (Sec. 3.4). Ties resolve FIFO.
  double best_fraction = -1.0;
  size_t best_index = 0;
  for (size_t i = 0; i < queue_.size(); ++i) {
    int64_t total = 0;
    int64_t local = 0;
    for (FileId id : queue_[i].inputs) {
      int64_t size = dfs_->SizeOf(id);
      if (size >= 0) total += size;
      local += EffectiveLocalBytes(id, node);
    }
    double fraction =
        total > 0 ? static_cast<double>(local) / static_cast<double>(total)
                  : 0.0;
    if (fraction > best_fraction + 1e-12) {
      best_fraction = fraction;
      best_index = i;
    }
  }
  TaskId id = queue_[best_index].id;
  queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(best_index));
  return id;
}

void DataAwareScheduler::RemoveTask(TaskId id) {
  queue_.erase(
      std::remove_if(queue_.begin(), queue_.end(),
                     [id](const QueuedTask& t) { return t.id == id; }),
      queue_.end());
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
    const StagingCache* staging) {
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
