#include "src/service/workflow_service.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/gc/footprint.h"
#include "src/sim/fault_injector.h"

namespace hiway {
namespace {

/// Delay before re-trying an AM container that no node could host (the
/// cluster is momentarily full).
constexpr double kStartRetryS = 5.0;

}  // namespace

const char* ToString(SubmissionState state) {
  switch (state) {
    case SubmissionState::kQueued: return "queued";
    case SubmissionState::kRunning: return "running";
    case SubmissionState::kRecovering: return "recovering";
    case SubmissionState::kSucceeded: return "succeeded";
    case SubmissionState::kFailed: return "failed";
    case SubmissionState::kExpired: return "expired";
  }
  return "unknown";
}

Result<std::unique_ptr<WorkflowService>> WorkflowService::Create(
    Deployment* deployment, WorkflowServiceOptions options) {
  // hiway::install (after hadoop::install) builds the provenance manager
  // and the membership plane the service drives.
  if (deployment == nullptr || deployment->provenance == nullptr) {
    return Status::InvalidArgument("service needs a converged deployment");
  }
  HIWAY_ASSIGN_OR_RETURN(RmPolicy rm_policy,
                         ParseRmPolicy(options.rm_scheduler));
  if (options.queues.empty()) {
    options.queues.push_back(ServiceQueueOptions{});
  }
  std::unique_ptr<WorkflowService> service(
      new WorkflowService(deployment, std::move(options)));
  for (const ServiceQueueOptions& q : service->options_.queues) {
    if (q.rm.name.empty()) {
      return Status::InvalidArgument("service queue without a name");
    }
    if (!service->queues_.emplace(q.rm.name, q).second) {
      return Status::InvalidArgument("duplicate service queue '" +
                                     q.rm.name + "'");
    }
    if (q.max_concurrent_ams < 1) {
      return Status::InvalidArgument(
          "queue '" + q.rm.name + "': max_concurrent_ams must be >= 1");
    }
    deployment->rm->ConfigureQueue(q.rm);
    service->backlog_[q.rm.name];
    service->running_[q.rm.name] = 0;
    service->counters_[q.rm.name];
  }
  deployment->rm->SetPolicy(rm_policy);
  // AM failover: the RM tells the service whenever it declares an
  // application failed (node loss under the AM, heartbeat timeout,
  // injected kill) so a replacement attempt can be launched.
  WorkflowService* svc = service.get();
  deployment->rm->SetAppFailureListener(
      [svc](ApplicationId app, const std::string& /*name*/,
            const std::string& reason) { svc->OnAppFailure(app, reason); });
  // Elastic membership: the autoscaler's poll loop quiesces alongside
  // the workload (same contract as FaultInjector::Recur). Start() is a
  // no-op for disabled policies.
  deployment->elastic->SetActiveCheck([svc] { return !svc->Idle(); });
  deployment->elastic->Start();
  // Footprint admission budgets against the capacity left after whatever
  // is already stored (staged inputs, prior runs' outputs) — stage inputs
  // before creating the service so the baseline includes them.
  if (service->options_.footprint_admission && deployment->dfs != nullptr &&
      deployment->dfs->options().capacity_bytes > 0) {
    service->footprint_budget_bytes_ =
        deployment->dfs->options().capacity_bytes -
        deployment->dfs->TotalStoredBytes();
  }
  return service;
}

WorkflowService::WorkflowService(Deployment* deployment,
                                 WorkflowServiceOptions options)
    : deployment_(deployment), options_(std::move(options)) {}

WorkflowService::~WorkflowService() {
  // The RM's failure listener captures `this`.
  deployment_->rm->SetAppFailureListener(nullptr);
}

uint64_t WorkflowService::SeedFor(SubmissionId id) const {
  // SplitMix64 step over (base_seed, id): deterministic replay without
  // correlated task-runtime noise between submissions.
  uint64_t z = options_.base_seed +
               0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(id + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Result<SubmissionId> WorkflowService::Submit(
    std::string name, std::unique_ptr<WorkflowSource> source,
    SubmissionOptions options) {
  if (source == nullptr) {
    return Status::InvalidArgument("null workflow source");
  }
  auto queue_it = queues_.find(options.queue);
  if (queue_it == queues_.end()) {
    return Status::InvalidArgument("unknown service queue '" +
                                   options.queue + "'");
  }
  ServiceQueueCounters& counters = counters_[options.queue];
  std::deque<SubmissionId>& backlog = backlog_[options.queue];
  // The backlog bound applies to submissions that would wait; one that a
  // free concurrency slot starts immediately never enters the backlog.
  bool would_wait = !backlog.empty() ||
                    running_[options.queue] >=
                        queue_it->second.max_concurrent_ams;
  if (would_wait &&
      static_cast<int>(backlog.size()) >= queue_it->second.max_backlog) {
    ++counters.rejected;
    return Status::ResourceExhausted(
        "queue '" + options.queue + "' backlog is full (" +
        std::to_string(queue_it->second.max_backlog) +
        " submissions); retry later");
  }
  ++counters.submitted;
  SubmissionId id = next_id_++;
  if (options.policy.empty()) options.policy = options_.default_policy;
  // Queue isolation extends to cached results unless the submitter chose
  // a result-cache namespace explicitly.
  if (options.tenant.empty()) options.tenant = options.queue;

  SubmissionRecord record;
  record.id = id;
  record.name = std::move(name);
  record.queue = options.queue;
  record.policy = options.policy;
  record.submitted_at = deployment_->engine.Now();
  record.deadline_s = options.deadline_s;
  records_[id] = std::move(record);

  Submission sub;
  sub.source = std::move(source);
  sub.options = std::move(options);
  subs_[id] = std::move(sub);
  if (options_.footprint_admission && footprint_budget_bytes_ > 0) {
    EstimateSubmissionFootprint(id);
  }
  backlog.push_back(id);
  ++live_submissions_;
  MarkPumpable(records_[id].queue);

  if (records_[id].deadline_s > 0.0) {
    deployment_->engine.ScheduleAfter(records_[id].deadline_s,
                                      [this, id] { OnDeadline(id); });
  }
  Pump();
  return id;
}

Result<SubmissionId> WorkflowService::SubmitStaged(
    const std::string& staged_name, SubmissionOptions options) {
  auto it = deployment_->workflows.find(staged_name);
  if (it == deployment_->workflows.end()) {
    return Status::NotFound("no staged workflow named '" + staged_name +
                            "'; converge its recipe first");
  }
  HiWayClient client(deployment_);
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<WorkflowSource> source,
                         client.MakeSource(it->second));
  if (!options.source_factory) {
    // Staged workflows are rebuildable from their recipe, which makes
    // them recoverable after an AM failure.
    options.source_factory = [dep = deployment_, staged = it->second] {
      return HiWayClient(dep).MakeSource(staged);
    };
  }
  return Submit(staged_name, std::move(source), std::move(options));
}

void WorkflowService::EstimateSubmissionFootprint(SubmissionId id) {
  Submission& sub = subs_[id];
  SubmissionRecord& rec = records_[id];
  if (sub.options.footprint_bytes == 0) return;  // explicit bypass
  int64_t logical = 0;  // additional logical bytes beyond staged inputs
  if (sub.options.footprint_bytes > 0) {
    logical = sub.options.footprint_bytes;
  } else {
    // Auto-estimate: walk the submission's own static task graph through
    // const accessors, so the source still reaches its AM unconsumed.
    // Iterative sources leave the gate bypassed — their peak is
    // unknowable up front.
    const auto* source =
        dynamic_cast<const StaticWorkflowSource*>(sub.source.get());
    if (source == nullptr) return;
    FootprintEstimate est = EstimateFootprint(
        source->tasks(), source->Targets(), deployment_->dfs.get());
    rec.footprint_estimate_bytes = est.peak_bytes;
    // Staged inputs already sit inside the baseline the budget was carved
    // from at Create(); only bytes beyond them are a new demand.
    logical = std::max<int64_t>(0, est.peak_bytes - est.input_bytes);
  }
  sub.admission_bytes =
      logical * static_cast<int64_t>(deployment_->dfs->options().replication);
}

void WorkflowService::CommitFootprint(SubmissionId id, int sign) {
  auto it = subs_.find(id);
  if (it == subs_.end() || it->second.admission_bytes <= 0) return;
  committed_footprint_bytes_ += sign * it->second.admission_bytes;
}

void WorkflowService::DissolveDormantScopes(SubmissionId id) {
  if (deployment_->gc == nullptr) return;
  for (const std::string& rid : subs_[id].run_ids) {
    if (deployment_->gc->HasScope(rid)) deployment_->gc->EndScope(rid);
  }
}

void WorkflowService::Pump() {
  // Snapshot-and-clear: PumpQueue may re-mark its queue (placement
  // retry), which must wait for the retry timer, not loop here. The
  // snapshot is sorted (std::set), matching the former full iteration
  // over backlog_ restricted to queues where anything changed.
  std::vector<std::string> dirty(pumpable_.begin(), pumpable_.end());
  pumpable_.clear();
  for (const std::string& queue : dirty) PumpQueue(queue);
}

void WorkflowService::PumpQueue(const std::string& queue) {
  std::deque<SubmissionId>& backlog = backlog_[queue];
  const ServiceQueueOptions& limits = queues_.at(queue);
  while (running_[queue] < limits.max_concurrent_ams && !backlog.empty()) {
    SubmissionId id = backlog.front();
    backlog.pop_front();
    // Footprint admission (need is 0 when it does not gate this one).
    const int64_t need = subs_[id].admission_bytes;
    if (need > 0 && need > footprint_budget_bytes_) {
      // Can never fit, even alone on an empty cluster: terminal.
      Finish(id, SubmissionState::kFailed,
             Status::ResourceExhausted(StrFormat(
                 "'%s' needs %lld footprint bytes but the DFS budget is %lld",
                 records_[id].name.c_str(), static_cast<long long>(need),
                 static_cast<long long>(footprint_budget_bytes_))));
      continue;
    }
    // A footprint that fits once a running workflow releases its share
    // waits like an unplaceable AM container. A positive ledger implies a
    // running AM, so the no-AM check below cannot misfire on it.
    const bool fits = need == 0 || committed_footprint_bytes_ + need <=
                                       footprint_budget_bytes_;
    if (fits && LaunchAttempt(id).ok()) continue;
    if (running_ams() == 0) {
      // No service-run AM will ever release capacity: the cluster is
      // statically too full. Fail instead of spinning forever.
      Finish(id, SubmissionState::kFailed,
             Status::ResourceExhausted(
                 "no node can host the AM container of '" +
                 records_[id].name + "'"));
      continue;
    }
    backlog.push_front(id);
    MarkPumpable(queue);
    if (!retry_scheduled_) {
      retry_scheduled_ = true;
      deployment_->engine.ScheduleAfter(kStartRetryS, [this] {
        retry_scheduled_ = false;
        Pump();
      });
    }
    break;
  }
}

Status WorkflowService::LaunchAttempt(SubmissionId id) {
  SubmissionRecord& rec = records_[id];
  Submission& sub = subs_[id];
  HiWayOptions hiway = sub.options.hiway;
  hiway.seed = SeedFor(id);
  hiway.rm_queue = rec.queue;
  hiway.am_attempt = rec.am_attempts + 1;
  const bool failover = hiway.am_attempt > 1;
  if (failover) {
    // The crashed attempt consumed its source (iterative sources carry
    // state); the replacement starts from a fresh one.
    auto source = sub.options.source_factory();
    if (!source.ok()) {
      Finish(id, SubmissionState::kFailed,
             source.status().WithContext(
                 "rebuilding the source for AM failover"));
      return Status::OK();
    }
    sub.source = std::move(*source);
  }
  auto launch =
      HiWayClient(deployment_).MakeAm(rec.policy, hiway, sub.options.tenant);
  if (!launch.ok()) {
    Finish(id, SubmissionState::kFailed, launch.status());
    return Status::OK();  // a bad policy never becomes launchable
  }
  sub.scheduler = std::move(launch->scheduler);
  sub.am = std::move(launch->am);
  sub.am->set_finish_listener(
      [this, id](const WorkflowReport& report) { OnFinished(id, report); });
  if (failover) {
    deployment_->tracer.Instant(
        SpanCategory::kFailover, "am_recovery", /*app=*/-1, /*container=*/-1,
        /*task=*/-1, /*node=*/-1,
        /*value=*/static_cast<double>(hiway.am_attempt), /*aux=*/id);
    // Provenance replay: the new attempt memoises every task the prior
    // attempts completed (when its recorded outputs survive in DFS). The
    // merged view covers exactly this submission's prior-attempt shards —
    // other tenants' runs are invisible by construction.
    sub.am->SetRecoveryTrace(
        deployment_->provenance->ViewOf(sub.run_ids).Events());
  }

  Status st = sub.am->Submit(sub.source.get(), sub.scheduler.get());
  if (!st.ok() && !rec.Terminal()) {
    // Rejected before registering: the AM owns no engine events, so it is
    // safe to discard synchronously.
    sub.am.reset();
    sub.scheduler.reset();
    if (st.IsResourceExhausted()) return st;  // no node can host the AM
    // Pre-registration validation failure (e.g. a static policy on an
    // iterative language): terminal.
    Finish(id, SubmissionState::kFailed, st);
    return Status::OK();
  }
  // Registered. A failed Init, or a recovery that memoised every task,
  // may already have finished the submission through OnFinished.
  if (rec.started_at < 0.0) rec.started_at = deployment_->engine.Now();
  if (st.ok()) {
    ++rec.am_attempts;
    if (failover) {
      rec.recovery_latency_s.push_back(deployment_->engine.Now() -
                                       sub.failed_at);
    }
  }
  if (rec.Terminal()) return Status::OK();
  // The replacement attempt's scope has re-registered pins on every file
  // it still needs (consumer registration precedes memoisation), so the
  // dead attempts' dormant scopes can dissolve: files only they
  // referenced are collected, shared ones keep the new pin.
  DissolveDormantScopes(id);
  if (!failover) {
    // A recovering submission kept its slot and charge.
    ++running_[rec.queue];
    CommitFootprint(id, +1);
  }
  rec.state = SubmissionState::kRunning;
  ++live_ams_;
  app_of_[sub.am->app()] = id;
  return Status::OK();
}

void WorkflowService::Finish(SubmissionId id, SubmissionState state,
                             Status status) {
  SubmissionRecord& rec = records_[id];
  Submission& sub = subs_[id];
  const bool holds_slot = rec.state == SubmissionState::kRunning ||
                          rec.state == SubmissionState::kRecovering;
  if (rec.state == SubmissionState::kRunning) --live_ams_;
  if (sub.am != nullptr) app_of_.erase(sub.am->app());
  rec.state = state;
  rec.finished_at = deployment_->engine.Now();
  if (rec.report.run_id.empty()) {
    // No AM reported (an AM report always carries its run id): the
    // submission expired, failed before starting, or its failover gave up.
    rec.report.workflow_name = rec.name;
    rec.report.am_attempt = std::max(1, rec.am_attempts);
  } else if (rec.deadline_s > 0.0 &&
             rec.finished_at > rec.submitted_at + rec.deadline_s) {
    rec.deadline_missed = true;
  }
  rec.report.status = std::move(status);
  ServiceQueueCounters& counters = counters_[rec.queue];
  if (state == SubmissionState::kSucceeded) {
    ++counters.succeeded;
  } else if (state == SubmissionState::kExpired) {
    ++counters.expired;
  } else {
    ++counters.failed;
  }
  if (holds_slot) {
    --running_[rec.queue];
    CommitFootprint(id, -1);
    MarkPumpable(rec.queue);
  }
  // With the submission terminal no further attempt will re-pin what the
  // dead attempts' dormant scopes hold.
  DissolveDormantScopes(id);
  --live_submissions_;
  reap_list_.push_back(id);
  // Finish may run inside AM code: defer teardown and the next launch.
  if (!reap_scheduled_) {
    reap_scheduled_ = true;
    deployment_->engine.ScheduleAfter(0.0, [this] {
      reap_scheduled_ = false;
      Reap();
      Pump();
    });
  }
}

void WorkflowService::OnFinished(SubmissionId id,
                                 const WorkflowReport& report) {
  records_[id].report = report;
  Finish(id,
         report.status.ok() ? SubmissionState::kSucceeded
                            : SubmissionState::kFailed,
         report.status);
}

void WorkflowService::OnDeadline(SubmissionId id) {
  SubmissionRecord& rec = records_[id];
  if (rec.state != SubmissionState::kQueued) return;
  std::deque<SubmissionId>& backlog = backlog_[rec.queue];
  auto it = std::find(backlog.begin(), backlog.end(), id);
  if (it != backlog.end()) backlog.erase(it);
  Finish(id, SubmissionState::kExpired,
         Status::FailedPrecondition("submission expired after " +
                                    std::to_string(rec.deadline_s) +
                                    "s in the admission queue"));
}

void WorkflowService::OnAppFailure(ApplicationId app,
                                   const std::string& reason) {
  auto map_it = app_of_.find(app);
  if (map_it == app_of_.end()) return;  // not a service-run AM
  SubmissionId id = map_it->second;
  app_of_.erase(map_it);
  SubmissionRecord& rec = records_[id];
  Submission& sub = subs_[id];
  if (rec.Terminal() || sub.am == nullptr) return;

  // The master process is dead: silence the object (its pending engine
  // events and executor completions become no-ops) and remember what the
  // attempt accomplished before retiring it.
  sub.am->Crash();
  deployment_->tracer.Instant(SpanCategory::kFailover, "am_failure", app,
                              /*container=*/-1, /*task=*/-1, /*node=*/-1,
                              /*value=*/static_cast<double>(rec.am_attempts),
                              /*aux=*/id);
  const WorkflowReport& partial = sub.am->report();
  if (!partial.run_id.empty()) sub.run_ids.push_back(partial.run_id);
  rec.completed_at_last_failure = partial.tasks_completed;
  ++rec.am_failures;
  sub.failed_at = deployment_->engine.Now();
  retired_.push_back(RetiredAttempt{std::move(sub.source),
                                    std::move(sub.scheduler),
                                    std::move(sub.am)});
  rec.state = SubmissionState::kRecovering;
  --live_ams_;

  if (!sub.options.source_factory) {
    Finish(id, SubmissionState::kFailed,
           Status::RuntimeError(StrFormat(
               "AM attempt %d failed (%s); submission has no source factory "
               "and is not recoverable",
               rec.am_attempts, reason.c_str())));
    return;
  }
  if (options_.am_retry.Exhausted(rec.am_attempts)) {
    Finish(id, SubmissionState::kFailed,
           Status::RuntimeError(StrFormat(
               "AM attempt %d failed (%s); attempts exhausted",
               rec.am_attempts, reason.c_str())));
    return;
  }
  double delay = options_.am_retry.BackoffBefore(rec.am_attempts + 1);
  deployment_->engine.ScheduleAfter(delay, [this, id] { Failover(id); });
}

void WorkflowService::Failover(SubmissionId id) {
  const SubmissionRecord& rec = records_[id];
  if (rec.state != SubmissionState::kRecovering) return;
  if (LaunchAttempt(id).ok()) return;
  // AM container placement failed (capacity shrank with the dead node).
  // Retry once another AM frees capacity — if no other AM is running,
  // nothing ever will, so fail now.
  if (live_ams_ == 0) {
    Finish(id, SubmissionState::kFailed,
           Status::ResourceExhausted(
               "no node can host the replacement AM container of '" +
               rec.name + "'"));
    return;
  }
  deployment_->engine.ScheduleAfter(kStartRetryS, [this, id] { Failover(id); });
}

Result<HiWayAm*> WorkflowService::LiveAm(SubmissionId id) const {
  auto it = subs_.find(id);
  if (it == subs_.end() || it->second.am == nullptr ||
      it->second.am->crashed() || it->second.am->finished()) {
    return Status::NotFound("submission " + std::to_string(id) +
                            " has no live AM");
  }
  return it->second.am.get();
}

Result<NodeId> WorkflowService::AmNode(SubmissionId id) const {
  HIWAY_ASSIGN_OR_RETURN(HiWayAm * am, LiveAm(id));
  return deployment_->rm->AmNode(am->app());
}

Status WorkflowService::InjectAmCrash(SubmissionId id) {
  HIWAY_ASSIGN_OR_RETURN(HiWayAm * am, LiveAm(id));
  am->Crash();  // silently: the RM times out its heartbeat lease
  return Status::OK();
}

void WorkflowService::InstallFaultHandlers(FaultInjector* injector) {
  Deployment* dep = deployment_;
  FaultHandlers h;
  h.list_nodes = [dep] {
    std::vector<NodeId> nodes;
    for (NodeId n = 0; n < dep->cluster->num_nodes(); ++n) {
      if (dep->rm->IsNodeAlive(n)) nodes.push_back(n);
    }
    return nodes;
  };
  // Node ids beyond the fleet are skipped when they fire (no live node
  // there), not rejected at parse time: elastic joins grow the fleet.
  h.kill_node = [dep](NodeId node) { return dep->elastic->KillNode(node); };
  h.list_am_nodes = [this] {
    std::vector<NodeId> nodes;
    for (const auto& [id, rec] : records_) {
      if (rec.state != SubmissionState::kRunning) continue;
      auto node = AmNode(id);
      if (node.ok()) nodes.push_back(*node);
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    return nodes;
  };
  h.am_node_of = [this](int64_t id) {
    auto node = AmNode(id);
    return node.ok() ? *node : kInvalidNode;
  };
  h.list_submissions = [this] {
    std::vector<int64_t> running;
    for (const auto& [id, rec] : records_) {
      if (rec.state == SubmissionState::kRunning) running.push_back(id);
    }
    return running;
  };
  h.crash_am = [this](int64_t id) { return InjectAmCrash(id).ok(); };
  h.list_containers = [dep] {
    std::vector<int64_t> ids;
    for (const Container& c : dep->rm->RunningContainers()) {
      if (!c.is_am) ids.push_back(c.id);
    }
    return ids;
  };
  h.fail_container = [dep](int64_t id) { dep->rm->KillContainer(id); };
  h.revoke_node = [dep](NodeId node, double warn_s) {
    return dep->elastic->RevokeNode(node, warn_s);
  };
  if (spot_fraction_ > 0.0) {
    double f = spot_fraction_;
    h.list_spot_nodes = [dep, f] {
      // The highest ⌈f·workers⌉ worker ids are the spot slice — the same
      // end of the fleet the autoscaler grows and shrinks, so elastic
      // joiners are spot too.
      NodeId first = dep->dfs->options().first_datanode;
      int workers = dep->cluster->num_nodes() - first;
      int spot = static_cast<int>(
          std::ceil(f * static_cast<double>(std::max(workers, 0))));
      std::vector<NodeId> nodes;
      for (NodeId n = dep->cluster->num_nodes() - 1;
           n >= first && static_cast<int>(nodes.size()) < spot; --n) {
        if (dep->rm->IsNodeAlive(n) && !dep->rm->IsNodeDraining(n)) {
          nodes.push_back(n);
        }
      }
      return nodes;
    };
  }
  h.active = [this] { return !Idle(); };
  injector->SetHandlers(std::move(h));
  // Transient-read faults (hdfs-error clauses) flow through the DFS hook.
  dep->dfs->SetReadFaultHook([injector](const std::string& path, NodeId node) {
    return injector->ShouldFailRead(path, node);
  });
  if (dep->result_cache != nullptr) {
    // --cache-verify spot-checks re-read hit outputs; hdfs-error faults
    // make those reads fail too (counted as verify transients, the hit
    // downgrades to a miss).
    dep->result_cache->SetVerifyReadHook(
        [injector](const std::string& path, NodeId node) {
          return injector->ShouldFailRead(path, node);
        });
  }
}

void WorkflowService::Reap() {
  for (SubmissionId id : reap_list_) {
    auto rec_it = records_.find(id);
    if (rec_it == records_.end() || !rec_it->second.Terminal()) continue;
    subs_.erase(id);
  }
  reap_list_.clear();
}

Status WorkflowService::RunToCompletion() {
  deployment_->engine.RunUntilPredicate(
      [this] { return live_submissions_ == 0; });
  if (live_submissions_ != 0) {
    return Status::RuntimeError(
        "engine ran out of events before all submissions finished");
  }
  return Status::OK();
}

bool WorkflowService::Idle() const { return live_submissions_ == 0; }

int WorkflowService::running_ams() const {
  int total = 0;
  for (const auto& [queue, count] : running_) total += count;
  return total;
}

int WorkflowService::running_ams(const std::string& queue) const {
  auto it = running_.find(queue);
  return it == running_.end() ? 0 : it->second;
}

int WorkflowService::backlog(const std::string& queue) const {
  auto it = backlog_.find(queue);
  return it == backlog_.end() ? 0 : static_cast<int>(it->second.size());
}

const SubmissionRecord* WorkflowService::record(SubmissionId id) const {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

std::vector<SubmissionRecord> WorkflowService::Records() const {
  std::vector<SubmissionRecord> out;
  out.reserve(records_.size());
  for (const auto& [id, rec] : records_) out.push_back(rec);
  return out;
}

const ServiceQueueCounters* WorkflowService::queue_counters(
    const std::string& queue) const {
  auto it = counters_.find(queue);
  return it == counters_.end() ? nullptr : &it->second;
}

std::vector<std::string> WorkflowService::QueueNames() const {
  std::vector<std::string> names;
  names.reserve(queues_.size());
  for (const auto& [name, q] : queues_) names.push_back(name);
  return names;
}

}  // namespace hiway
