#include "src/yarn/yarn.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <queue>
#include <type_traits>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/obs/tracer.h"
#include "src/yarn/rm_scheduler.h"

namespace hiway {

const char* ToString(ContainerLossReason reason) {
  switch (reason) {
    case ContainerLossReason::kNodeLost: return "node-lost";
    case ContainerLossReason::kKilled: return "killed";
    case ContainerLossReason::kPreempted: return "preempted";
    case ContainerLossReason::kDrained: return "drained";
  }
  return "unknown";
}

Result<RmPolicy> ParseRmPolicy(const std::string& name) {
  if (name == "fifo") return RmPolicy::kFifo;
  if (name == "capacity") return RmPolicy::kCapacity;
  if (name == "fair") return RmPolicy::kFair;
  return Status::InvalidArgument("unknown RM scheduler '" + name +
                                 "' (want fifo | capacity | fair)");
}

const char* ToString(RmPolicy policy) {
  switch (policy) {
    case RmPolicy::kFifo: return "fifo";
    case RmPolicy::kCapacity: return "capacity";
    case RmPolicy::kFair: return "fair";
  }
  return "unknown";
}

ResourceManager::ResourceManager(Cluster* cluster, YarnOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  nodes_.resize(static_cast<size_t>(cluster_->num_nodes()));
  for (NodeId n = 0; n < cluster_->num_nodes(); ++n) {
    nodes_[static_cast<size_t>(n)].free_vcores = cluster_->node(n).cores;
    nodes_[static_cast<size_t>(n)].free_memory_mb =
        cluster_->node(n).memory_mb;
    total_vcores_ += cluster_->node(n).cores;
    total_memory_mb_ += cluster_->node(n).memory_mb;
    IndexNode(n);
    AddNodeShape(cluster_->node(n).cores, cluster_->node(n).memory_mb);
  }
  queue_configs_["default"] = RmQueueConfig{};
}

ResourceManager::~ResourceManager() = default;

void ResourceManager::AddNodeShape(int vcores, double memory_mb) {
  for (const NodeShape& shape : node_shapes_) {
    if (shape.vcores >= vcores && shape.memory_mb >= memory_mb) return;
  }
  std::erase_if(node_shapes_, [&](const NodeShape& shape) {
    return shape.vcores <= vcores && shape.memory_mb <= memory_mb;
  });
  node_shapes_.push_back({vcores, memory_mb});
}

Status ResourceManager::CheckAllocatable(int vcores,
                                         double memory_mb) const {
  for (const NodeShape& shape : node_shapes_) {
    if (shape.vcores >= vcores && shape.memory_mb >= memory_mb) {
      return Status::OK();
    }
  }
  std::vector<std::string> shapes;
  for (const NodeShape& shape : node_shapes_) {
    shapes.push_back(
        StrFormat("%d vcores / %.0f MB", shape.vcores, shape.memory_mb));
  }
  return Status::ResourceExhausted("no node is that large (node shapes: " +
                                   StrJoin(shapes, ", ") + ")");
}

void ResourceManager::ConfigureQueue(const RmQueueConfig& config) {
  queue_configs_[config.name] = config;
  TenantStats& qs = queue_stats_[config.name];
  qs.queue = config.name;
}

const RmQueueConfig* ResourceManager::queue_config(
    const std::string& name) const {
  auto it = queue_configs_.find(name);
  return it == queue_configs_.end() ? nullptr : &it->second;
}

std::vector<std::string> ResourceManager::ConfiguredQueues() const {
  std::vector<std::string> names;
  names.reserve(queue_configs_.size());
  for (const auto& [name, config] : queue_configs_) names.push_back(name);
  return names;
}

// ---- Placement index ----------------------------------------------------

void ResourceManager::IndexNode(NodeId node) {
  NodeState& ns = nodes_[static_cast<size_t>(node)];
  if (ns.indexed || !ns.alive || ns.draining) return;
  // A node with nothing free can only satisfy a zero-size request, and
  // those take the full-fleet scan path.
  if (ns.free_vcores <= 0 && ns.free_memory_mb <= 0.0) return;
  ns.indexed = true;
  open_nodes_.insert(node);
  open_vcores_.insert(ns.free_vcores);
  open_memory_.insert(ns.free_memory_mb);
}

void ResourceManager::UnindexNode(NodeId node) {
  NodeState& ns = nodes_[static_cast<size_t>(node)];
  if (!ns.indexed) return;
  ns.indexed = false;
  open_nodes_.erase(node);
  open_vcores_.erase(open_vcores_.find(ns.free_vcores));
  open_memory_.erase(open_memory_.find(ns.free_memory_mb));
}

// ---- Tenant accounting --------------------------------------------------

TenantStats& ResourceManager::StatsOf(ApplicationId app) {
  TenantStats& stats = app_stats_[app];
  if (stats.queue.empty()) stats.queue = "default";
  return stats;
}

TenantStats& ResourceManager::QueueStatsOf(ApplicationId app) {
  TenantStats& qs = queue_stats_[StatsOf(app).queue];
  if (qs.queue.empty()) qs.queue = StatsOf(app).queue;
  return qs;
}

void ResourceManager::AddPending(ApplicationId app,
                                 const ContainerRequest& r) {
  for (TenantStats* s : {&StatsOf(app), &QueueStatsOf(app)}) {
    s->pending.vcores += r.vcores;
    s->pending.memory_mb += r.memory_mb;
    ++s->pending_requests;
  }
  FairnessTouch(app);
}

void ResourceManager::RemovePending(ApplicationId app,
                                    const ContainerRequest& r) {
  for (TenantStats* s : {&StatsOf(app), &QueueStatsOf(app)}) {
    s->pending.vcores -= r.vcores;
    s->pending.memory_mb -= r.memory_mb;
    --s->pending_requests;
  }
  FairnessTouch(app);
}

Container* ResourceManager::AllocateOn(ApplicationId app, NodeId node,
                                       int vcores, double memory_mb) {
  NodeState& ns = nodes_[static_cast<size_t>(node)];
  HIWAY_CHECK(ns.alive);
  HIWAY_CHECK(ns.free_vcores >= vcores && ns.free_memory_mb >= memory_mb);
  UnindexNode(node);
  ns.free_vcores -= vcores;
  ns.free_memory_mb -= memory_mb;
  IndexNode(node);
  Container c;
  c.id = next_container_++;
  c.app = app;
  c.node = node;
  c.vcores = vcores;
  c.memory_mb = memory_mb;
  c.allocated_at = cluster_->engine()->Now();
  auto [it, inserted] = containers_.emplace(c.id, c);
  HIWAY_CHECK(inserted);
  ++counters_.allocations;
  for (TenantStats* s : {&StatsOf(app), &QueueStatsOf(app)}) {
    ++s->counters.allocations;
    s->usage.vcores += vcores;
    s->usage.memory_mb += memory_mb;
  }
  FairnessTouch(app);
  return &it->second;
}

Result<ApplicationId> ResourceManager::RegisterApplication(
    const std::string& name, AmCallbacks* callbacks, int am_vcores,
    double am_memory_mb, NodeId am_node, const std::string& queue) {
  if (queue_configs_.find(queue) == queue_configs_.end()) {
    return Status::InvalidArgument("unknown RM queue '" + queue +
                                   "'; ConfigureQueue it first");
  }
  NodeId target = am_node;
  if (target == kInvalidNode) {
    if (am_vcores > 0 || am_memory_mb > 0.0) {
      // Open nodes are alive and not draining by construction, and any
      // node that fits a positive-size AM has free capacity, so the
      // ascending open set visits exactly the fleet scan's hits.
      for (NodeId n : open_nodes_) {
        const NodeState& ns = nodes_[static_cast<size_t>(n)];
        if (ns.free_vcores >= am_vcores && ns.free_memory_mb >= am_memory_mb) {
          target = n;
          break;
        }
      }
    } else {
      for (NodeId n = 0; n < cluster_->num_nodes(); ++n) {
        const NodeState& ns = nodes_[static_cast<size_t>(n)];
        if (ns.alive && !ns.draining && ns.free_vcores >= am_vcores &&
            ns.free_memory_mb >= am_memory_mb) {
          target = n;
          break;
        }
      }
    }
    if (target == kInvalidNode) {
      return Status::ResourceExhausted(
          "no node has capacity for the AM container of " + name);
    }
  } else {
    const NodeState& ns = nodes_[static_cast<size_t>(target)];
    if (!ns.alive || ns.draining || ns.free_vcores < am_vcores ||
        ns.free_memory_mb < am_memory_mb) {
      return Status::ResourceExhausted("requested AM node lacks capacity");
    }
  }
  AccrueFairness();
  ApplicationId app = next_app_++;
  app_stats_[app].queue = queue;
  Container* am = AllocateOn(app, target, am_vcores, am_memory_mb);
  am->is_am = true;
  if (tracer_ != nullptr) {
    tracer_->Begin(SpanCategory::kContainer, "container", app, am->id,
                   /*task=*/-1, target);
  }
  AppState state;
  state.name = name;
  state.callbacks = callbacks;
  state.am_container = am->id;
  state.beat_phase = cluster_->engine()->Now();
  apps_.emplace(app, std::move(state));
  // The app entered the registry after its AM allocation; fold its cell
  // into the fairness aggregates now.
  FairnessTouch(app);
  return app;
}

void ResourceManager::UnregisterApplication(ApplicationId app) {
  auto it = apps_.find(app);
  if (it == apps_.end()) return;
  AccrueFairness();
  it->second.active = false;
  FairnessDrop(app);
  // Drop pending requests (this application's only).
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [&](const PendingRequest& p) {
                                if (p.app != app) return false;
                                RemovePending(app, p.request);
                                return true;
                              }),
               queue_.end());
  if (it->second.am_container != kInvalidContainer) {
    ReleaseContainer(it->second.am_container);
  }
  apps_.erase(app);
}

void ResourceManager::SubmitRequest(ApplicationId app,
                                    const ContainerRequest& request) {
  HIWAY_CHECK(apps_.find(app) != apps_.end());
  ++counters_.requests;
  ++StatsOf(app).counters.requests;
  ++QueueStatsOf(app).counters.requests;
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanCategory::kContainer, "container_requested", app,
                     /*container=*/-1, /*task=*/request.cookie,
                     request.preferred_node);
  }
  Enqueue({app, request, cluster_->engine()->Now()});
}

void ResourceManager::Enqueue(PendingRequest p) {
  AccrueFairness();
  AddPending(p.app, p.request);
  queue_.push_back(std::move(p));
  ScheduleAllocationPass();
}

int ResourceManager::CancelRequests(ApplicationId app, int64_t cookie) {
  AccrueFairness();
  int removed = 0;
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [&](const PendingRequest& p) {
                                if (p.app == app &&
                                    p.request.cookie == cookie) {
                                  RemovePending(app, p.request);
                                  ++removed;
                                  return true;
                                }
                                return false;
                              }),
               queue_.end());
  return removed;
}

void ResourceManager::ReleaseContainer(ContainerId id) {
  auto it = containers_.find(id);
  if (it == containers_.end()) return;
  AccrueFairness();
  const Container& c = it->second;
  NodeState& ns = nodes_[static_cast<size_t>(c.node)];
  if (ns.alive) {
    UnindexNode(c.node);
    ns.free_vcores += c.vcores;
    ns.free_memory_mb += c.memory_mb;
    IndexNode(c.node);
  }
  ++counters_.releases;
  double work = cluster_->engine()->Now() - c.allocated_at;
  if (tracer_ != nullptr) {
    tracer_->End(SpanCategory::kContainer, "container", c.app, c.id,
                 /*task=*/-1, c.node, work);
  }
  if (!c.is_am) counters_.container_work_s += work;
  for (TenantStats* s : {&StatsOf(c.app), &QueueStatsOf(c.app)}) {
    ++s->counters.releases;
    if (!c.is_am) s->counters.container_work_s += work;
    s->usage.vcores -= c.vcores;
    s->usage.memory_mb -= c.memory_mb;
  }
  FairnessTouch(c.app);
  containers_.erase(id);
  ScheduleAllocationPass();
}

void ResourceManager::DropContainer(const Container& c,
                                    ContainerLossReason reason, bool notify) {
  auto it = containers_.find(c.id);
  if (it == containers_.end()) return;
  NodeState& ns = nodes_[static_cast<size_t>(c.node)];
  if (ns.alive) {
    UnindexNode(c.node);
    ns.free_vcores += c.vcores;
    ns.free_memory_mb += c.memory_mb;
    IndexNode(c.node);
  }
  bool reclaim = !notify;  // losses of a dead master count as reclaims
  bool preempted = !reclaim && reason == ContainerLossReason::kPreempted;
  bool drained = !reclaim && reason == ContainerLossReason::kDrained;
  // Lifetime of the dying container: consumed work always, and — for
  // preemption/drain victims — wasted work the owning AM must redo.
  double work = cluster_->engine()->Now() - c.allocated_at;
  if (tracer_ != nullptr) {
    tracer_->End(SpanCategory::kContainer, "container", c.app, c.id,
                 /*task=*/-1, c.node, work);
    if (preempted) {
      tracer_->Instant(SpanCategory::kPreemption, "preempt_kill", c.app, c.id,
                       /*task=*/-1, c.node, work, c.priority);
    } else if (drained) {
      tracer_->Instant(SpanCategory::kMembership, "drain_vacate", c.app, c.id,
                       /*task=*/-1, c.node, work);
    } else {
      tracer_->Instant(SpanCategory::kFailover, "container_lost", c.app, c.id,
                       /*task=*/-1, c.node, work,
                       static_cast<int64_t>(reason));
    }
  }
  for (RmCounters* k : {&counters_, &StatsOf(c.app).counters,
                        &QueueStatsOf(c.app).counters}) {
    if (reclaim) {
      ++k->reclaimed_containers;
    } else if (preempted) {
      ++k->preempted_containers;
      if (!c.is_am) k->preempted_work_s += work;
    } else if (drained) {
      ++k->drained_containers;
      if (!c.is_am) k->drained_work_s += work;
    } else {
      ++k->lost_containers;
      if (!c.is_am) k->lost_work_s += work;
    }
    if (!c.is_am) k->container_work_s += work;
  }
  for (TenantStats* s : {&StatsOf(c.app), &QueueStatsOf(c.app)}) {
    s->usage.vcores -= c.vcores;
    s->usage.memory_mb -= c.memory_mb;
  }
  FairnessTouch(c.app);
  containers_.erase(c.id);
  if (!notify) return;
  auto app_it = apps_.find(c.app);
  if (app_it != apps_.end() && app_it->second.callbacks != nullptr) {
    // Synchronous delivery: by the time KillNode/KillContainer returns,
    // every surviving AM has seen its losses and re-queued work.
    app_it->second.callbacks->OnContainerLost(c, reason);
  }
}

void ResourceManager::KillNode(NodeId node) {
  if (!nodes_[static_cast<size_t>(node)].alive) return;
  AccrueFairness();
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanCategory::kFailover, "node_lost", /*app=*/-1,
                     /*container=*/-1, /*task=*/-1, node);
  }
  RetireCapacity(node);
  // Applications whose AM container lived on the node die with it
  // (ascending id, matching the registry's former sorted iteration).
  std::vector<ApplicationId> dead_apps;
  for (const auto& [app, state] : apps_) {
    auto cit = containers_.find(state.am_container);
    if (cit != containers_.end() && cit->second.node == node) {
      dead_apps.push_back(app);
    }
  }
  std::sort(dead_apps.begin(), dead_apps.end());
  for (ApplicationId app : dead_apps) {
    FailApplication(app, StrFormat("AM node %d lost", node));
  }
  // Survivors' containers on the node are reported as node losses.
  for (const Container& c :
       ContainersWhere([node](const Container& c) { return c.node == node; })) {
    DropContainer(c, ContainerLossReason::kNodeLost, /*notify=*/true);
  }
  ScheduleAllocationPass();
}

void ResourceManager::RetireCapacity(NodeId node) {
  NodeState& ns = nodes_[static_cast<size_t>(node)];
  UnindexNode(node);
  ns.alive = false;
  ns.draining = false;
  ns.free_vcores = 0;
  ns.free_memory_mb = 0.0;
  total_vcores_ -= cluster_->node(node).cores;
  total_memory_mb_ -= cluster_->node(node).memory_mb;
  // Every demand-satisfaction share moved with the capacity.
  FairnessRebuild();
}

std::vector<Container> ResourceManager::ContainersWhere(
    const std::function<bool(const Container&)>& match) const {
  std::vector<Container> out;
  for (const auto& [id, c] : containers_) {
    if (match(c)) out.push_back(c);
  }
  std::sort(out.begin(), out.end(),
            [](const Container& a, const Container& b) { return a.id < b.id; });
  return out;
}

void ResourceManager::AddNode(NodeId node) {
  HIWAY_CHECK(node == static_cast<NodeId>(nodes_.size()));
  HIWAY_CHECK(node < cluster_->num_nodes());
  AccrueFairness();
  NodeState ns;
  ns.free_vcores = cluster_->node(node).cores;
  ns.free_memory_mb = cluster_->node(node).memory_mb;
  nodes_.push_back(ns);
  IndexNode(node);
  total_vcores_ += cluster_->node(node).cores;
  total_memory_mb_ += cluster_->node(node).memory_mb;
  AddNodeShape(ns.free_vcores, ns.free_memory_mb);
  FairnessRebuild();
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanCategory::kMembership, "node_joined", /*app=*/-1,
                     /*container=*/-1, /*task=*/-1, node,
                     static_cast<double>(ns.free_vcores));
  }
  // The new capacity is matched against the backlog like any release.
  ScheduleAllocationPass();
}

void ResourceManager::BeginDrain(NodeId node, double deadline) {
  NodeState& ns = nodes_[static_cast<size_t>(node)];
  if (!ns.alive || ns.draining) return;
  AccrueFairness();
  UnindexNode(node);
  ns.draining = true;
  ns.drain_deadline = deadline;
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanCategory::kMembership, "node_draining", /*app=*/-1,
                     /*container=*/-1, /*task=*/-1, node, deadline);
  }
  // Tell every live master so it can triage its containers on the node.
  // DropContainer (the reaction AMs typically take) never mutates apps_,
  // so iterating a snapshot of the registry is safe. Ascending app id.
  std::vector<std::pair<ApplicationId, AmCallbacks*>> masters;
  for (const auto& [app, state] : apps_) {
    if (state.active && state.callbacks != nullptr) {
      masters.emplace_back(app, state.callbacks);
    }
  }
  std::sort(masters.begin(), masters.end());
  for (const auto& [app, cb] : masters) cb->OnNodeDraining(node, deadline);
}

bool ResourceManager::DecommissionNode(NodeId node) {
  if (!IsNodeAlive(node) || HostsAm(node)) return false;
  AccrueFairness();
  // Vacate remaining task containers (kDrained: requeued, uncharged).
  std::vector<Container> vacated =
      ContainersWhere([node](const Container& c) { return c.node == node; });
  for (const Container& c : vacated) {
    DropContainer(c, ContainerLossReason::kDrained, /*notify=*/true);
  }
  RetireCapacity(node);
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanCategory::kMembership, "node_decommissioned",
                     /*app=*/-1, /*container=*/-1, /*task=*/-1, node,
                     static_cast<double>(vacated.size()));
  }
  ScheduleAllocationPass();
  return true;
}

bool ResourceManager::HostsAm(NodeId node) const {
  for (const auto& [id, c] : containers_) {
    if (c.node == node && c.is_am) return true;
  }
  return false;
}

bool ResourceManager::DrainContainer(ContainerId id) {
  auto it = containers_.find(id);
  if (it == containers_.end()) return false;
  Container c = it->second;
  if (c.is_am) return false;
  AccrueFairness();
  DropContainer(c, ContainerLossReason::kDrained, /*notify=*/true);
  ScheduleAllocationPass();
  return true;
}

bool ResourceManager::IsNodeDraining(NodeId node) const {
  return IsNodeAlive(node) && nodes_[static_cast<size_t>(node)].draining;
}

int ResourceManager::containers_on(NodeId node) const {
  int count = 0;
  for (const auto& [id, c] : containers_) {
    if (c.node == node) ++count;
  }
  return count;
}

void ResourceManager::FailApplication(ApplicationId app,
                                      const std::string& reason) {
  auto it = apps_.find(app);
  if (it == apps_.end()) return;
  AccrueFairness();
  it->second.active = false;
  FairnessDrop(app);
  // Drop the failed application's pending requests.
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [&](const PendingRequest& p) {
                                if (p.app != app) return false;
                                RemovePending(app, p.request);
                                return true;
                              }),
               queue_.end());
  // Reclaim every container the app still holds (AM and in-flight
  // tasks), ascending container id. The master is presumed dead: nothing
  // is notified.
  for (const Container& c :
       ContainersWhere([app](const Container& c) { return c.app == app; })) {
    DropContainer(c, ContainerLossReason::kNodeLost, /*notify=*/false);
  }
  ++counters_.app_failures;
  ++StatsOf(app).counters.app_failures;
  ++QueueStatsOf(app).counters.app_failures;
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanCategory::kFailover, "app_failed", app);
  }
  std::string name = std::move(it->second.name);
  apps_.erase(app);
  ScheduleAllocationPass();
  if (app_failure_listener_) app_failure_listener_(app, name, reason);
}

bool ResourceManager::KillContainer(ContainerId id) {
  auto it = containers_.find(id);
  if (it == containers_.end()) return false;
  Container c = it->second;
  if (c.is_am) {
    FailApplication(c.app, "AM container killed");
    return true;
  }
  AccrueFairness();
  DropContainer(c, ContainerLossReason::kKilled, /*notify=*/true);
  ScheduleAllocationPass();
  return true;
}

void ResourceManager::AmSilent(ApplicationId app) {
  auto it = apps_.find(app);
  if (it == apps_.end()) return;
  // Each beat was scheduled from the one before, so repeating the same
  // additions rebuilds the beat times bit for bit. A beat due exactly now
  // counts as missed: the crash event was queued before it.
  SimTime now = cluster_->engine()->Now();
  SimTime last_beat = it->second.beat_phase;
  while (last_beat + kAmHeartbeatS < now) last_beat += kAmHeartbeatS;
  cluster_->engine()->ScheduleAt(last_beat + kAmLivenessTimeoutS, [this, app] {
    FailApplication(app, StrFormat("AM heartbeat timeout (%.1fs)",
                                   kAmLivenessTimeoutS));
  });
}

std::vector<Container> ResourceManager::RunningContainers() const {
  return ContainersWhere([](const Container&) { return true; });
}

bool ResourceManager::IsNodeAlive(NodeId node) const {
  return node >= 0 && static_cast<size_t>(node) < nodes_.size() &&
         nodes_[static_cast<size_t>(node)].alive;
}

Result<NodeId> ResourceManager::AmNode(ApplicationId app) const {
  auto it = apps_.find(app);
  if (it == apps_.end()) return Status::NotFound("unknown application");
  auto cit = containers_.find(it->second.am_container);
  if (cit == containers_.end()) {
    return Status::NotFound("AM container gone");
  }
  return cit->second.node;
}

int ResourceManager::free_vcores(NodeId node) const {
  return nodes_[static_cast<size_t>(node)].free_vcores;
}

double ResourceManager::free_memory_mb(NodeId node) const {
  return nodes_[static_cast<size_t>(node)].free_memory_mb;
}

int ResourceManager::pending_requests(ApplicationId app) const {
  auto it = app_stats_.find(app);
  return it == app_stats_.end() ? 0 : it->second.pending_requests;
}

const TenantStats* ResourceManager::app_stats(ApplicationId app) const {
  auto it = app_stats_.find(app);
  return it == app_stats_.end() ? nullptr : &it->second;
}

const TenantStats* ResourceManager::queue_stats(
    const std::string& queue) const {
  auto it = queue_stats_.find(queue);
  return it == queue_stats_.end() ? nullptr : &it->second;
}

std::vector<ApplicationId> ResourceManager::KnownApplications() const {
  std::vector<ApplicationId> apps;
  apps.reserve(app_stats_.size());
  for (const auto& [app, stats] : app_stats_) apps.push_back(app);
  std::sort(apps.begin(), apps.end());
  return apps;
}

// ---- Fairness accounting ------------------------------------------------

RmTenancyView ResourceManager::TenancyView() const {
  RmTenancyView view;
  view.total_vcores = total_vcores_;
  view.total_memory_mb = total_memory_mb_;
  view.app_stats = &app_stats_;
  view.queue_stats = &queue_stats_;
  view.queue_configs = &queue_configs_;
  return view;
}

ResourceManager::FairCell ResourceManager::FairnessCellOf(
    ApplicationId app) const {
  // Demand-satisfaction ratio: how much of its demanded dominant share
  // (allocated + queued) the app actually holds.
  FairCell cell;
  auto as = app_stats_.find(app);
  if (as == app_stats_.end()) return cell;
  RmTenancyView view = TenancyView();
  double alloc = view.DominantShare(as->second.usage);
  double pend = view.DominantShare(as->second.pending);
  if (alloc + pend <= 0.0) return cell;
  cell.x = alloc / (alloc + pend);
  cell.x2 = cell.x * cell.x;
  cell.included = true;
  cell.backlogged = as->second.pending_requests > 0;
  return cell;
}

void ResourceManager::FairnessTouch(ApplicationId app) {
  auto it = apps_.find(app);
  if (it == apps_.end() || !it->second.active) return;
  AppState& st = it->second;
  if (st.fair.included) fairness_agg_.Remove(st.fair);
  st.fair = FairnessCellOf(app);
  if (st.fair.included) fairness_agg_.Add(st.fair);
  // The +=/-= running sums accumulate rounding error; periodically snap
  // them back to the from-scratch values.
  if (++fairness_touches_ % 4096 == 0) FairnessRebuild();
}

void ResourceManager::FairnessDrop(ApplicationId app) {
  auto it = apps_.find(app);
  if (it == apps_.end()) return;
  AppState& st = it->second;
  if (st.fair.included) fairness_agg_.Remove(st.fair);
  st.fair = FairCell{};
}

void ResourceManager::FairnessRebuild() {
  // Ascending app id: the same summation order as the from-scratch
  // reference index.
  fairness_agg_ = FairnessAgg{};
  std::vector<ApplicationId> ids;
  ids.reserve(apps_.size());
  for (const auto& [app, state] : apps_) {
    if (state.active) ids.push_back(app);
  }
  std::sort(ids.begin(), ids.end());
  for (ApplicationId app : ids) {
    AppState& st = apps_.at(app);
    st.fair = FairnessCellOf(app);
    if (st.fair.included) fairness_agg_.Add(st.fair);
  }
}

void ResourceManager::AccrueFairness() {
  double now = cluster_->engine()->Now();
  double dt = now - fairness_last_;
  fairness_last_ = now;
  if (dt <= 0.0) return;
  if (!fairness_agg_.contended()) return;
  fairness_integral_ += fairness_agg_.Jain() * dt;
  fairness_time_ += dt;
}

double ResourceManager::TimeAveragedFairness() const {
  // Include the open interval since the last state change.
  double integral = fairness_integral_;
  double time = fairness_time_;
  double dt = cluster_->engine()->Now() - fairness_last_;
  if (dt > 0.0 && fairness_agg_.contended()) {
    integral += fairness_agg_.Jain() * dt;
    time += dt;
  }
  return time > 0.0 ? integral / time : 1.0;
}

// ---- Allocation ---------------------------------------------------------

void ResourceManager::ScheduleAllocationPass() {
  if (pass_scheduled_) return;
  pass_scheduled_ = true;
  cluster_->engine()->ScheduleAfter(options_.allocation_delay_s, [this] {
    pass_scheduled_ = false;
    AllocationPass();
  });
}

NodeId ResourceManager::TryPlaceScan(const ContainerRequest& r) {
  // Seed placement semantics, shared across all RM schedulers: the
  // preferred node first, then (unless strict) a rotating scan over
  // nodes with capacity that are not blacklisted. Deferred strict
  // requests wait.
  if (r.preferred_node != kInvalidNode &&
      Fits(nodes_[static_cast<size_t>(r.preferred_node)], r)) {
    return r.preferred_node;
  }
  if (r.strict_locality) return kInvalidNode;
  int total = cluster_->num_nodes();
  for (int step = 0; step < total; ++step) {
    NodeId n = (next_alloc_node_ + step) % total;
    if (!Fits(nodes_[static_cast<size_t>(n)], r)) continue;
    if (std::find(r.blacklist.begin(), r.blacklist.end(), n) !=
        r.blacklist.end()) {
      continue;
    }
    next_alloc_node_ = (n + 1) % total;
    return n;
  }
  return kInvalidNode;
}

NodeId ResourceManager::TryPlace(const ContainerRequest& r) {
  if (r.preferred_node != kInvalidNode &&
      Fits(nodes_[static_cast<size_t>(r.preferred_node)], r)) {
    return r.preferred_node;
  }
  if (r.strict_locality) return kInvalidNode;
  // A request needing nothing fits on full nodes too, which the open set
  // excludes by design; take the fleet scan (rare: tests only).
  if (r.vcores <= 0 && r.memory_mb <= 0.0) return TryPlaceScan(r);
  if (open_nodes_.empty()) return kInvalidNode;
  // O(1) infeasibility: every node that could fit the request has free
  // capacity (hence is indexed), so if even the best open node falls
  // short in either dimension, no node fits.
  if ((r.vcores > 0 && *open_vcores_.rbegin() < r.vcores) ||
      (r.memory_mb > 0.0 && *open_memory_.rbegin() < r.memory_mb)) {
    return kInvalidNode;
  }
  // Rotating scan restricted to open nodes: visits candidates in exactly
  // the order the full-fleet scan would (ascending id from
  // next_alloc_node_, wrapping), skipping only nodes that scan would
  // have rejected anyway.
  int total = cluster_->num_nodes();
  auto it = open_nodes_.lower_bound(next_alloc_node_);
  for (size_t visited = 0, n_open = open_nodes_.size(); visited < n_open;
       ++visited) {
    if (it == open_nodes_.end()) it = open_nodes_.begin();
    NodeId n = *it;
    ++it;
    if (!Fits(nodes_[static_cast<size_t>(n)], r)) continue;
    if (std::find(r.blacklist.begin(), r.blacklist.end(), n) !=
        r.blacklist.end()) {
      continue;
    }
    next_alloc_node_ = (n + 1) % total;
    return n;
  }
  return kInvalidNode;
}

void ResourceManager::CommitAllocation(PassSlot& s, NodeId chosen,
                                       int* pass_allocations) {
  const ContainerRequest& r = s.req.request;
  s.consumed = true;
  ++*pass_allocations;
  RemovePending(s.req.app, r);
  double wait = cluster_->engine()->Now() - s.req.submitted_at;
  StatsOf(s.req.app).wait_times_s.push_back(wait);
  QueueStatsOf(s.req.app).wait_times_s.push_back(wait);
  Container* c = AllocateOn(s.req.app, chosen, r.vcores, r.memory_mb);
  c->priority = r.priority;
  if (tracer_ != nullptr) {
    tracer_->Begin(SpanCategory::kContainer, "container", s.req.app, c->id,
                   /*task=*/-1, chosen);
    tracer_->Instant(SpanCategory::kContainer, "container_allocated",
                     s.req.app, c->id, /*task=*/r.cookie, chosen, wait);
  }
  AmCallbacks* cb = apps_.at(s.req.app).callbacks;
  // Deliver the allocation asynchronously (AM heartbeat). A container lost
  // before then (killed, preempted, its node gone) was reported while no
  // task owned it: it never reaches the AM, and its request is re-queued.
  cluster_->engine()->ScheduleAfter(0.0, [this, cb, copy = *c, req = s.req] {
    if (containers_.contains(copy.id)) {
      cb->OnContainerAllocated(copy, req.request.cookie);
    } else if (apps_.contains(req.app)) {
      Enqueue(req);
    }
  });
}

void ResourceManager::FifoPass(std::vector<PassSlot>& slots,
                               int* pass_allocations) {
  for (PassSlot& s : slots) {
    if (s.consumed || !s.eligible) continue;
    NodeId chosen = TryPlace(s.req.request);
    if (chosen == kInvalidNode) {
      s.eligible = false;
      continue;
    }
    CommitAllocation(s, chosen, pass_allocations);
  }
}

template <typename Key>
void ResourceManager::GroupedPass(std::vector<PassSlot>& slots,
                                  const RmTenancyView& view,
                                  int* pass_allocations) {
  // Capacity (Key = queue name) and fair (Key = app id) both reduce to:
  // within a group, candidates go in FIFO order; across groups, the
  // group with the smallest (score, key) wins, where the score depends
  // only on the group's own usage. So instead of re-scoring every
  // pending request per pick, keep one cursor per group and a heap over
  // group heads. Two facts keep this exact:
  //
  //  * usage only grows within a pass, so a candidate that fails
  //    WithinMaxShare now fails for the rest of the pass — cursor skips
  //    over max-share failures are permanent;
  //  * a group's score changes only when the group itself allocates
  //    (capacity: its queue's usage; fair: the app's own usage), and the
  //    group's heap entry is out of the heap while it is being
  //    processed, so heap entries never carry stale scores. Heads can go
  //    stale (a same-queue sibling's allocation can push later
  //    candidates over the max share), hence the re-advance on pop.
  constexpr bool by_queue = std::is_same_v<Key, std::string>;
  struct Group {
    std::vector<size_t> slots;
    size_t cursor = 0;
    const std::string* queue = nullptr;
  };
  std::map<Key, Group> groups;
  for (size_t i = 0; i < slots.size(); ++i) {
    const PassSlot& s = slots[i];
    if (s.consumed) continue;
    const std::string* q = &app_stats_.at(s.req.app).queue;
    Key key;
    if constexpr (by_queue) {
      key = *q;
    } else {
      key = s.req.app;
    }
    Group& g = groups[key];
    g.slots.push_back(i);
    g.queue = q;
  }
  // Head of a group: its first slot (FIFO) that is still live and would
  // stay within the queue's max share. -1 when exhausted.
  auto advance = [&](Group& g) -> ptrdiff_t {
    while (g.cursor < g.slots.size()) {
      size_t idx = g.slots[g.cursor];
      const PassSlot& s = slots[idx];
      if (s.consumed || !s.eligible) {
        ++g.cursor;
        continue;
      }
      if (!view.WithinMaxShare(*g.queue, s.req.request)) {
        ++g.cursor;  // permanent: usage is monotone within the pass
        continue;
      }
      return static_cast<ptrdiff_t>(idx);
    }
    return -1;
  };
  auto score_of = [&](const Key& key, const Group& g) -> double {
    if constexpr (by_queue) {
      // Capacity pressure: queue dominant share over its guaranteed
      // share.
      ResourceUsage used;
      auto qs_it = queue_stats_.find(*g.queue);
      if (qs_it != queue_stats_.end()) used = qs_it->second.usage;
      double guaranteed = 1.0;
      auto cfg_it = queue_configs_.find(*g.queue);
      if (cfg_it != queue_configs_.end()) {
        guaranteed = cfg_it->second.guaranteed_share;
      }
      if (guaranteed <= 0.0) guaranteed = 1e-9;
      return view.DominantShare(used) / guaranteed;
    } else {
      // Fair (DRF) share: app dominant share over its queue's weight.
      ResourceUsage used;
      auto as_it = app_stats_.find(key);
      if (as_it != app_stats_.end()) used = as_it->second.usage;
      double weight = 1.0;
      auto cfg_it = queue_configs_.find(*g.queue);
      if (cfg_it != queue_configs_.end()) weight = cfg_it->second.weight;
      if (weight <= 0.0) weight = 1e-9;
      return view.DominantShare(used) / weight;
    }
  };
  struct HeapEnt {
    double score;
    const Key* key;
    Group* group;
  };
  // Min-heap on (score, key): ties go to the smaller queue name / app
  // id.
  struct Worse {
    bool operator()(const HeapEnt& a, const HeapEnt& b) const {
      if (a.score != b.score) return a.score > b.score;
      return *a.key > *b.key;
    }
  };
  std::priority_queue<HeapEnt, std::vector<HeapEnt>, Worse> heap;
  for (auto& [key, g] : groups) {
    if (advance(g) >= 0) heap.push(HeapEnt{score_of(key, g), &key, &g});
  }
  while (!heap.empty()) {
    HeapEnt e = heap.top();
    heap.pop();
    Group& g = *e.group;
    ptrdiff_t idx = advance(g);
    if (idx < 0) continue;  // exhausted since pushed
    PassSlot& s = slots[static_cast<size_t>(idx)];
    NodeId chosen = TryPlace(s.req.request);
    if (chosen == kInvalidNode) {
      // The slot leaves the pass; the group's next candidate competes at
      // the unchanged score.
      s.eligible = false;
      heap.push(e);
      continue;
    }
    CommitAllocation(s, chosen, pass_allocations);
    if (advance(g) >= 0) heap.push(HeapEnt{score_of(*e.key, g), e.key, &g});
  }
}

void ResourceManager::AllocationPass() {
  auto wall_start = std::chrono::steady_clock::now();
  AccrueFairness();
  // Snapshot the queue into a slot table. Each pass, the policy picks
  // the next slot to try; a slot is consumed on success or becomes
  // ineligible for the rest of the pass on failure, so the loop always
  // terminates. Un-consumed requests return to the queue in their
  // original order (FIFO therefore reproduces the original single-queue
  // behaviour decision for decision).
  std::vector<PassSlot> slots;
  slots.reserve(queue_.size());
  for (PendingRequest& p : queue_) slots.push_back(PassSlot{std::move(p)});
  queue_.clear();
  for (PassSlot& s : slots) {
    auto it = apps_.find(s.req.app);
    if (it == apps_.end() || !it->second.active) {
      s.consumed = true;  // drop requests of departed applications
      RemovePending(s.req.app, s.req.request);
    }
  }

  RmTenancyView view = TenancyView();
  int pass_allocations = 0;
  if (pass_hook_) {
    pass_hook_(slots, view, &pass_allocations);
  } else {
    switch (options_.scheduler) {
      case RmPolicy::kFifo:
        FifoPass(slots, &pass_allocations);
        break;
      case RmPolicy::kCapacity:
        GroupedPass<std::string>(slots, view, &pass_allocations);
        break;
      case RmPolicy::kFair:
        GroupedPass<ApplicationId>(slots, view, &pass_allocations);
        break;
    }
  }

  for (PassSlot& s : slots) {
    if (!s.consumed) queue_.push_back(std::move(s.req));
  }
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanCategory::kScheduler, "allocation_pass", /*app=*/-1,
                     /*container=*/-1, /*task=*/-1, /*node=*/-1,
                     static_cast<double>(pass_allocations),
                     static_cast<int64_t>(queue_.size()));
  }
  UpdateStarvation();
  ++passes_;
  pass_wall_ns_ += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
}

bool ResourceManager::QueueStarved(const std::string& queue) const {
  auto cfg_it = queue_configs_.find(queue);
  if (cfg_it == queue_configs_.end()) return false;
  auto qs_it = queue_stats_.find(queue);
  if (qs_it == queue_stats_.end()) return false;
  const TenantStats& qs = qs_it->second;
  if (qs.pending_requests <= 0) return false;  // no unmet demand
  return TenancyView().DominantShare(qs.usage) + 1e-9 <
         cfg_it->second.guaranteed_share;
}

void ResourceManager::UpdateStarvation() {
  double now = cluster_->engine()->Now();
  int budget = options_.max_preempt_per_round;
  bool preempted_any = false;
  for (const auto& [qname, cfg] : queue_configs_) {
    const std::string& queue = qname;
    QueueStarvation& st = starvation_[queue];
    bool starved = QueueStarved(queue);
    if (!starved) {
      if (st.since >= 0.0) {
        // Episode closed: the queue climbed back to its guarantee (or its
        // backlog drained). Record the restoration latency.
        double dt = now - st.since;
        TenantStats& qs = queue_stats_[queue];
        qs.time_under_guarantee_s += dt;
        qs.restoration_latency_s.push_back(dt);
        st.since = -1.0;
      }
      continue;
    }
    if (st.since < 0.0) st.since = now;
    if (!options_.preemption) continue;
    double deadline = st.since + options_.preemption_grace_s;
    if (now + 1e-9 < deadline) {
      // Within grace: give voluntary releases a chance first, but make
      // sure a pass (and with it a preemption round) runs at expiry.
      if (!st.wakeup_scheduled) {
        st.wakeup_scheduled = true;
        cluster_->engine()->ScheduleAt(deadline, [this, queue] {
          auto it = starvation_.find(queue);
          if (it != starvation_.end()) it->second.wakeup_scheduled = false;
          AllocationPass();
        });
      }
      continue;
    }
    if (budget <= 0) continue;  // this round's kills are spent
    int killed = PreemptFor(queue, budget);
    budget -= killed;
    if (killed > 0) preempted_any = true;
  }
  // Freed capacity is matched against the starved backlog on the next
  // pass (one allocation delay, like any other release).
  if (preempted_any) ScheduleAllocationPass();
}

int ResourceManager::PreemptFor(const std::string& starved, int budget) {
  auto cfg_it = queue_configs_.find(starved);
  auto qs_it = queue_stats_.find(starved);
  if (cfg_it == queue_configs_.end() || qs_it == queue_stats_.end()) return 0;
  const RmQueueConfig& cfg = cfg_it->second;
  const TenantStats& qs = qs_it->second;
  // Reclaim no more than the starved queue can actually use: its deficit
  // against the guarantee, capped by its pending demand.
  ResourceUsage needed;
  double deficit_vc = cfg.guaranteed_share * total_vcores_ - qs.usage.vcores;
  double deficit_mb =
      cfg.guaranteed_share * total_memory_mb_ - qs.usage.memory_mb;
  needed.vcores = static_cast<int>(
      std::ceil(std::max(0.0, std::min(deficit_vc,
                                       static_cast<double>(qs.pending.vcores)))));
  needed.memory_mb = std::max(0.0, std::min(deficit_mb, qs.pending.memory_mb));
  if (needed.vcores <= 0 && needed.memory_mb <= 0.0) return 0;

  // Candidates ascending by container id: the victim comparator's
  // surplus leg is epsilon-banded, so scan order is behaviour-visible.
  std::vector<PreemptionCandidate> candidates;
  candidates.reserve(containers_.size());
  for (const auto& [id, c] : containers_) {
    auto as_it = app_stats_.find(c.app);
    if (as_it == app_stats_.end()) continue;
    candidates.push_back(PreemptionCandidate{c, &as_it->second.queue});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const PreemptionCandidate& a, const PreemptionCandidate& b) {
              return a.container.id < b.container.id;
            });
  std::vector<ContainerId> victims = SelectPreemptionVictims(
      candidates, TenancyView(), starved, needed, budget);
  int killed = 0;
  for (ContainerId id : victims) {
    auto it = containers_.find(id);
    if (it == containers_.end()) continue;
    Container victim = it->second;
    HIWAY_CHECK(!victim.is_am);  // invariant: AM containers are never preempted
    DropContainer(victim, ContainerLossReason::kPreempted, /*notify=*/true);
    ++killed;
  }
  return killed;
}

}  // namespace hiway
