#include "src/core/scheduler.h"

#include <algorithm>

#include "src/common/logging.h"

namespace hiway {

// ---------------------------------------------------------------- FCFS ----

void FcfsScheduler::EnqueueReady(const TaskSpec& task) {
  queue_.push_back(task);
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
  TaskId id = queue_.front().id;
  queue_.pop_front();
  return id;
}

void FcfsScheduler::RemoveTask(TaskId id) {
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [id](const TaskSpec& t) { return t.id == id; }),
               queue_.end());
}

// ---------------------------------------------------------- data-aware ----

void DataAwareScheduler::EnqueueReady(const TaskSpec& task) {
  queue_.push_back(task);
}

int64_t DataAwareScheduler::EffectiveLocalBytes(const std::string& path,
                                                NodeId node) const {
  int64_t local = dfs_->LocalBytes(path, node);
  if (staging_ != nullptr) {
    // A staged copy only counts while it matches the file's current
    // content; CachedBytes checks the fingerprint and never perturbs
    // the cache's LRU order.
    local = std::max(
        local, staging_->CachedBytes(path, dfs_->ContentId(path), node));
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
  int64_t best_bytes = -1;
  NodeId best_node = kInvalidNode;
  for (NodeId n = 0; n < dfs_->cluster()->num_nodes(); ++n) {
    int64_t local = 0;
    for (const std::string& path : task.input_files) {
      local += EffectiveLocalBytes(path, n);
    }
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
    const TaskSpec& task = queue_[i];
    int64_t total = 0;
    int64_t local = 0;
    for (const std::string& path : task.input_files) {
      auto info = dfs_->Stat(path);
      if (info.ok()) total += info->size_bytes;
      local += EffectiveLocalBytes(path, node);
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
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [id](const TaskSpec& t) { return t.id == id; }),
               queue_.end());
}

// ---------------------------------------------------------- round-robin ---

namespace {

/// Kahn topological order; tasks missing from `deps` count as sources.
/// Returns InvalidArgument on cycles.
Result<std::vector<const TaskSpec*>> TopologicalOrder(
    const std::vector<TaskSpec>& tasks, const TaskDependencies& deps) {
  std::map<TaskId, const TaskSpec*> by_id;
  std::map<TaskId, int> in_degree;
  std::map<TaskId, std::vector<TaskId>> dependents;
  for (const TaskSpec& t : tasks) {
    by_id[t.id] = &t;
    in_degree[t.id] = 0;
  }
  for (const auto& [task, parents] : deps) {
    for (TaskId parent : parents) {
      if (by_id.find(parent) == by_id.end()) continue;
      ++in_degree[task];
      dependents[parent].push_back(task);
    }
  }
  std::deque<TaskId> frontier;
  for (const TaskSpec& t : tasks) {
    if (in_degree[t.id] == 0) frontier.push_back(t.id);
  }
  std::vector<const TaskSpec*> order;
  while (!frontier.empty()) {
    TaskId id = frontier.front();
    frontier.pop_front();
    order.push_back(by_id[id]);
    for (TaskId dep : dependents[id]) {
      if (--in_degree[dep] == 0) frontier.push_back(dep);
    }
  }
  if (order.size() != tasks.size()) {
    return Status::InvalidArgument("task graph contains a cycle");
  }
  return order;
}

}  // namespace

// ------------------------------------------------------ static policies ---

std::deque<TaskSpec>& StaticPlacementScheduler::QueueOf(
    const TaskSpec& task) {
  auto it = assignment_.find(task.id);
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
  TaskId id = it->second.front().id;
  it->second.pop_front();
  --queued_;
  return id;
}

void StaticPlacementScheduler::RemoveTask(TaskId id) {
  for (auto& [node, queue] : ready_per_node_) {
    size_t before = queue.size();
    queue.erase(std::remove_if(queue.begin(), queue.end(),
                               [id](const TaskSpec& t) { return t.id == id; }),
                queue.end());
    queued_ -= before - queue.size();
  }
}

Result<NodeId> StaticPlacementScheduler::AssignedNode(TaskId id) const {
  auto it = assignment_.find(id);
  if (it == assignment_.end()) return Status::NotFound("task not scheduled");
  return it->second;
}

Status RoundRobinScheduler::BuildStaticSchedule(
    const std::vector<TaskSpec>& tasks, const TaskDependencies& deps,
    const std::vector<NodeId>& nodes) {
  if (nodes.empty()) {
    return Status::InvalidArgument("round-robin needs at least one node");
  }
  HIWAY_ASSIGN_OR_RETURN(std::vector<const TaskSpec*> order,
                         TopologicalOrder(tasks, deps));
  size_t next = 0;
  for (const TaskSpec* t : order) {
    assignment_[t->id] = nodes[next];
    next = (next + 1) % nodes.size();
  }
  return Status::OK();
}

void RoundRobinScheduler::EnqueueReady(const TaskSpec& task) {
  QueueOf(task).push_back(task);
  ++queued_;
}

// ----------------------------------------------------------------- HEFT ---

Status HeftScheduler::BuildStaticSchedule(const std::vector<TaskSpec>& tasks,
                                          const TaskDependencies& deps,
                                          const std::vector<NodeId>& nodes) {
  if (nodes.empty()) {
    return Status::InvalidArgument("HEFT needs at least one node");
  }
  HIWAY_ASSIGN_OR_RETURN(std::vector<const TaskSpec*> order,
                         TopologicalOrder(tasks, deps));

  // Successor lists for the upward-rank recursion.
  std::map<TaskId, std::vector<TaskId>> successors;
  for (const auto& [task, parents] : deps) {
    for (TaskId parent : parents) successors[parent].push_back(task);
  }
  std::map<TaskId, const TaskSpec*> by_id;
  for (const TaskSpec& t : tasks) by_id[t.id] = &t;

  // rank_u(t) = w̄(t) + max over successors of rank_u(succ); computed in
  // reverse topological order. w̄ averages the estimates over the
  // schedulable nodes.
  auto mean_estimate = [&](const std::string& signature) {
    double total = 0.0;
    for (NodeId n : nodes) total += estimator_->Estimate(signature, n);
    return total / static_cast<double>(nodes.size());
  };
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskSpec* t = *it;
    double succ_rank = 0.0;
    for (TaskId s : successors[t->id]) {
      succ_rank = std::max(succ_rank, rank_[s]);
    }
    rank_[t->id] = mean_estimate(t->signature) + succ_rank;
  }

  // Placement: tasks by decreasing rank onto the node with the earliest
  // estimated finish time. EST respects both the node's accumulated load
  // and the estimated finish times of the task's parents.
  std::vector<const TaskSpec*> by_rank(order.begin(), order.end());
  std::stable_sort(by_rank.begin(), by_rank.end(),
                   [this](const TaskSpec* a, const TaskSpec* b) {
                     return rank_[a->id] > rank_[b->id];
                   });
  std::map<NodeId, double> node_free;
  std::map<NodeId, int> node_tasks;
  for (NodeId n : nodes) {
    node_free[n] = 0.0;
    node_tasks[n] = 0;
  }
  std::map<TaskId, double> finish_time;
  for (const TaskSpec* t : by_rank) {
    double parents_done = 0.0;
    auto dep_it = deps.find(t->id);
    if (dep_it != deps.end()) {
      for (TaskId parent : dep_it->second) {
        auto fit = finish_time.find(parent);
        if (fit != finish_time.end()) {
          parents_done = std::max(parents_done, fit->second);
        }
      }
    }
    // EFT ties (common while estimates default to zero) break towards the
    // least-loaded node, so exploration spreads over all unobserved
    // machines instead of herding onto one.
    double best_eft = std::numeric_limits<double>::infinity();
    int best_count = std::numeric_limits<int>::max();
    NodeId best_node = nodes.front();
    for (NodeId n : nodes) {
      double est = std::max(node_free[n], parents_done);
      double eft = est + estimator_->Estimate(t->signature, n);
      if (eft < best_eft - 1e-12 ||
          (eft < best_eft + 1e-12 && node_tasks[n] < best_count)) {
        best_eft = eft;
        best_count = node_tasks[n];
        best_node = n;
      }
    }
    assignment_[t->id] = best_node;
    node_free[best_node] = best_eft;
    ++node_tasks[best_node];
    finish_time[t->id] = best_eft;
  }
  return Status::OK();
}

void HeftScheduler::EnqueueReady(const TaskSpec& task) {
  // Keep the per-node queue ordered by decreasing rank so critical tasks
  // launch first.
  auto& queue = QueueOf(task);
  double r = rank_[task.id];
  auto pos = std::find_if(queue.begin(), queue.end(),
                          [this, r](const TaskSpec& t) {
                            return rank_.at(t.id) < r;
                          });
  queue.insert(pos, task);
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
