#include "src/core/hiway_am.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/lang/workflow_validate.h"
#include "src/obs/tracer.h"

namespace hiway {

namespace {
/// AM-assigned task ids start high so they never collide with ids chosen
/// by language front-ends (which count from 1).
constexpr TaskId kAmTaskIdBase = 1000000;
}  // namespace

HiWayAm::HiWayAm(Cluster* cluster, ResourceManager* rm, Dfs* dfs,
                 ToolRegistry* tools, ProvenanceManager* provenance,
                 RuntimeEstimator* estimator, HiWayOptions options)
    : cluster_(cluster),
      rm_(rm),
      dfs_(dfs),
      tools_(tools),
      provenance_(provenance),
      estimator_(estimator),
      options_(options),
      next_task_id_(kAmTaskIdBase) {
  storage_ = std::make_unique<DfsStorageAdapter>(dfs_);
  executor_ = std::make_unique<TaskExecutor>(cluster_, tools_, storage_.get(),
                                             options_.seed);
}

void HiWayAm::SetStagingCache(StagingCache* staging) {
  storage_->SetStagingCache(staging);
}

HiWayAm::~HiWayAm() {
  if (submitted_ && !finished_ && !crashed_) {
    rm_->UnregisterApplication(app_);
  }
}

void HiWayAm::Crash() {
  if (finished_ || crashed_) return;
  crashed_ = true;
  // The heartbeats stop; the RM times the AM out.
  if (submitted_) rm_->AmSilent(app_);
  // A dead attempt's shard is sealed: in-flight executor callbacks that
  // race past the crash are dropped (and counted) instead of polluting
  // the crash-prefix trace that the next attempt replays.
  if (shard_ != nullptr) shard_->Seal();
  // Freeze the GC scope: its pins survive until a replacement attempt has
  // re-registered every interest and the service dissolves this scope.
  if (gc_ != nullptr && submitted_) gc_->MarkDormant(report_.run_id);
}

void HiWayAm::SetRecoveryTrace(const std::vector<ProvenanceEvent>& events) {
  // Reassemble completed tasks from the prior attempts' records. Events
  // of one task are keyed by (run, task id) — several runs may appear
  // when earlier recoveries re-executed work — and entries are memoised
  // in recorded completion order, so duplicate signatures (identical
  // invocations, e.g. across iterations) replay in the order they
  // originally finished.
  struct Partial {
    MemoEntry entry;
    std::string signature;
    bool succeeded = false;
    int end_order = -1;
  };
  std::map<std::pair<std::string, TaskId>, Partial> partials;
  int order = 0;
  for (const ProvenanceEvent& ev : events) {
    auto key = std::make_pair(ev.run_id, ev.task_id);
    switch (ev.type) {
      case ProvenanceEventType::kTaskStart:
        partials[key].signature = ev.signature;
        break;
      case ProvenanceEventType::kTaskEnd:
        if (ev.success) {
          Partial& p = partials[key];
          p.succeeded = true;
          p.end_order = order++;
          p.entry.node = ev.node;
          p.entry.duration = ev.duration;
          p.entry.stdout_value = ev.stdout_value;
        }
        break;
      case ProvenanceEventType::kFileStageOut:
        partials[key].entry.outputs.emplace_back(ev.file_path,
                                                 ev.size_bytes);
        break;
      default:
        break;
    }
  }
  std::vector<const Partial*> done;
  for (const auto& [key, p] : partials) {
    if (p.succeeded && !p.signature.empty()) done.push_back(&p);
  }
  std::sort(done.begin(), done.end(),
            [](const Partial* a, const Partial* b) {
              return a->end_order < b->end_order;
            });
  for (const Partial* p : done) {
    memo_[p->signature].push_back(p->entry);
  }
}

Status HiWayAm::PrepareTasks(std::vector<TaskSpec>* tasks) {
  for (TaskSpec& spec : *tasks) {
    if (spec.id == kInvalidTask) spec.id = next_task_id_++;
    if (spec.vcores <= 0) spec.vcores = options_.container_vcores;
    if (spec.memory_mb <= 0.0) spec.memory_mb = options_.container_memory_mb;
    if (options_.tailor_containers) {
      // Sec. 5: containers "custom-tailored to the tasks that are to be
      // executed" — cap the container at the tool's useful thread count
      // so single-threaded stages stop reserving whole nodes.
      auto profile = tools_->Find(spec.ToolName());
      if (profile.ok()) {
        int useful = std::max(1, (*profile)->max_threads);
        spec.vcores = std::min(spec.vcores, useful);
        // Scale memory with the core share, floored at 512 MB.
        double per_core =
            options_.container_memory_mb /
            std::max(options_.container_vcores, 1);
        spec.memory_mb =
            std::max(512.0, per_core * static_cast<double>(spec.vcores));
      }
    }
    // No node can ever host an unallocatable container, so waiting for
    // one would hang the workflow.
    HIWAY_RETURN_IF_ERROR(
        rm_->CheckAllocatable(spec.vcores, spec.memory_mb)
            .WithContext(StrFormat("task %lld ('%s') needs a %d-vcore / "
                                   "%.0f MB container",
                                   static_cast<long long>(spec.id),
                                   spec.signature.c_str(), spec.vcores,
                                   spec.memory_mb)));
  }
  return Status::OK();
}

Status HiWayAm::Submit(WorkflowSource* source, WorkflowScheduler* scheduler) {
  if (submitted_) {
    return Status::FailedPrecondition("AM already has a workflow");
  }
  if (options_.container_vcores < 1 || options_.container_memory_mb <= 0.0) {
    return Status::InvalidArgument(StrFormat(
        "container sizing must be positive, got %d vcores / %.0f MB",
        options_.container_vcores, options_.container_memory_mb));
  }
  if (scheduler->IsStatic() && !source->IsStatic()) {
    // The paper: static policies "can not be used in conjunction with
    // workflow languages that allow iterative workflows" (Sec. 3.4).
    return Status::InvalidArgument(
        StrFormat("static scheduling policy '%s' is incompatible with "
                  "iterative workflow language '%s'",
                  scheduler->name().c_str(), source->name().c_str()));
  }
  source_ = source;
  scheduler_ = scheduler;

  // The YARN application name carries the AM attempt id so failover
  // attempts of one submission stay distinguishable in RM accounting.
  std::string app_name = "hiway:" + source->name();
  if (options_.am_attempt > 1) {
    app_name += StrFormat("#%d", options_.am_attempt);
  }
  HIWAY_ASSIGN_OR_RETURN(
      app_, rm_->RegisterApplication(app_name, this,
                                     options_.am_vcores, options_.am_memory_mb,
                                     options_.am_node, options_.rm_queue));
  submitted_ = true;
  report_ = WorkflowReport();
  report_.workflow_name = source->name();
  report_.am_attempt = options_.am_attempt;
  report_.started_at = cluster_->engine()->Now();
  report_.run_id =
      provenance_->BeginWorkflow(source->name(), report_.started_at);
  // The AM appends to its own shard for its whole lifetime — recording
  // never takes the manager's registry lock (no cross-AM contention).
  shard_ = provenance_->shard(report_.run_id);
  if (result_cache_ != nullptr) {
    // Bind this run to its tenant namespace: entries the run publishes
    // are only ever served back to workflows of the same tenant.
    result_cache_->BindRun(report_.run_id, cache_tenant_);
  }
  if (tracer_ != nullptr) {
    tracer_->Begin(SpanCategory::kWorkflow, "workflow", app_);
  }

  auto initial = source_->Init();
  if (!initial.ok()) {
    FinishWorkflow(initial.status().WithContext("workflow parsing failed"));
    return initial.status();
  }
  if (gc_ != nullptr) {
    // Iterative sources may discover consumers of any path later, so
    // their scope only collects when it ends.
    gc_->BeginScope(report_.run_id, source_->IsStatic());
    gc_->SetTargets(report_.run_id, source_->Targets());
  }

  // Assign ids and container defaults before static scheduling sees them.
  std::vector<TaskSpec> tasks = std::move(initial).value();
  Status sized = PrepareTasks(&tasks);
  if (!sized.ok()) {
    FinishWorkflow(sized);
    return sized;
  }

  if (scheduler_->IsStatic()) {
    // Static placements may only target nodes that can actually host task
    // containers (dedicated master VMs or otherwise exhausted nodes are
    // excluded).
    std::vector<NodeId> schedulable;
    for (NodeId n = 0; n < cluster_->num_nodes(); ++n) {
      if (rm_->IsNodeAlive(n) &&
          rm_->free_vcores(n) >= options_.container_vcores &&
          rm_->free_memory_mb(n) >= options_.container_memory_mb) {
        schedulable.push_back(n);
      }
    }
    Status st = scheduler_->BuildStaticSchedule(tasks, TaskGraph(tasks),
                                                schedulable);
    if (!st.ok()) {
      FinishWorkflow(st.WithContext("static scheduling failed"));
      return st;
    }
  }

  Status st = AdmitTasks(std::move(tasks));
  if (!st.ok()) {
    FinishWorkflow(st);
    return st;
  }
  // Also finishes degenerate workflows with zero tasks.
  return DeliverCompletions();
}

Status HiWayAm::AdmitTasks(std::vector<TaskSpec> tasks) {
  for (TaskSpec& spec : tasks) {
    if (tasks_.find(spec.id) != tasks_.end()) {
      return Status::InvalidArgument(
          StrFormat("duplicate task id %lld emitted by source",
                    static_cast<long long>(spec.id)));
    }
    TaskEntry entry;
    entry.spec = std::move(spec);
    TaskId id = entry.spec.id;
    auto [it, inserted] = tasks_.emplace(id, std::move(entry));
    TaskEntry* e = &it->second;
    std::vector<FileId>& inputs = e->inputs;
    inputs.reserve(e->spec.input_files.size());
    for (const std::string& path : e->spec.input_files) {
      inputs.push_back(dfs_->Intern(path));
    }
    // Pin inputs before memoisation: a replayed completion releases its
    // pins through the same OnConsumerDone path as a real one, so the
    // refcounts never skip a consumer.
    if (gc_ != nullptr) gc_->RegisterConsumer(report_.run_id, id, inputs);
    if (TryMemoise(e)) continue;
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (!dfs_->Exists(e->spec.input_files[i])) {
        // A file listed twice is waited on, and counted, once.
        if (waiting_on_file_[inputs[i]].insert(id).second) ++e->missing_inputs;
      } else if (tracer_ != nullptr) {
        // Input already present: if one of our tasks produced it, the
        // dependency edge still matters for the critical path.
        auto prod = file_producer_.find(inputs[i]);
        if (prod != file_producer_.end() && prod->second != id) {
          tracer_->Instant(SpanCategory::kTask, "task_dep", app_,
                           /*container=*/-1, id, /*node=*/-1, /*value=*/0.0,
                           prod->second);
        }
      }
    }
    if (e->missing_inputs == 0) {
      MarkReadyOrServe(e);
    } else {
      e->state = TaskState::kWaiting;
      ++waiting_;
    }
  }
  return Status::OK();
}

bool HiWayAm::TryMemoise(TaskEntry* entry) {
  auto it = memo_.find(entry->spec.signature);
  if (it == memo_.end() || it->second.empty()) return false;
  // Every file output the spec promises must still exist in DFS — a
  // node kill may have taken replicas with it; then the task simply
  // re-executes.
  std::vector<std::pair<std::string, int64_t>> produced;
  for (const OutputSpec& out : entry->spec.outputs) {
    if (out.is_value) continue;
    auto info = dfs_->Stat(out.path);
    if (!info.ok()) return false;
    produced.emplace_back(out.path, info->size_bytes);
  }
  MemoEntry memo = std::move(it->second.front());
  it->second.pop_front();
  ++report_.tasks_memoised;
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanCategory::kTask, "task_memoised", app_,
                     /*container=*/-1, entry->spec.id, memo.node,
                     memo.duration);
  }
  // Not re-recorded in provenance and not fed to the estimator: the
  // original attempt's records already cover this completion.
  CompleteInstantly(entry, memo.node, std::move(memo.stdout_value),
                    std::move(produced));
  return true;
}

void HiWayAm::Complete(TaskEntry* entry, TaskResult result) {
  entry->state = TaskState::kDone;
  entry->inputs = std::vector<FileId>();  // a done task never queues again
  ++report_.tasks_completed;
  completions_.push_back(std::move(result));
}

void HiWayAm::CompleteInstantly(
    TaskEntry* entry, NodeId node, std::string stdout_value,
    std::vector<std::pair<std::string, int64_t>> produced) {
  double now = cluster_->engine()->Now();
  TaskResult result;
  result.id = entry->spec.id;
  result.signature = entry->spec.signature;
  result.status = Status::OK();
  result.node = node;
  result.started_at = now;
  result.finished_at = now;
  result.stdout_value = std::move(stdout_value);
  result.produced_files = std::move(produced);
  Complete(entry, std::move(result));
}

Status HiWayAm::DeliverCompletions() {
  if (delivering_) return Status::OK();  // the outer loop picks them up
  delivering_ = true;
  Status st;
  while (st.ok() && !completions_.empty()) {
    TaskResult result = std::move(completions_.front());
    completions_.pop_front();
    // Waiters unblocked here may be served from the result cache; their
    // completions queue behind this one.
    RegisterProducedFiles(result);
    // Input pins are released only on successful completion (executed,
    // memoised or cache-served): preempted or drained attempts re-queue
    // with their pins intact.
    if (gc_ != nullptr) gc_->OnConsumerDone(report_.run_id, result.id);
    auto discovered = source_->OnTaskCompleted(result);
    if (!discovered.ok()) {
      st = discovered.status().WithContext("workflow evaluation failed");
    } else if (discovered->empty()) {
      continue;
    } else if (scheduler_->IsStatic()) {
      st = Status::FailedPrecondition(
          "a statically scheduled source discovered new tasks at runtime");
    } else {
      st = PrepareTasks(&*discovered);
      if (st.ok()) st = AdmitTasks(std::move(discovered).value());
    }
  }
  delivering_ = false;
  if (!st.ok()) {
    FinishWorkflow(st);
    return st;
  }
  MaybeFinish();
  return Status::OK();
}

void HiWayAm::MarkReadyOrServe(TaskEntry* entry) {
  if (TryCacheHit(entry)) return;
  MarkReady(entry);
}

bool HiWayAm::TryCacheHit(TaskEntry* entry) {
  if (result_cache_ == nullptr) return false;
  auto lookup = result_cache_->Lookup(entry->spec, cache_tenant_);
  if (!lookup.ok()) {
    if (lookup.status().IsIoError()) {
      // Spot-check verification caught cached outputs that no longer
      // match DFS; the cache evicted the entry, we recompute.
      HIWAY_LOG_WARN << "cache verification failed for task "
                     << entry->spec.id << " (" << entry->spec.signature
                     << "): " << lookup.status().ToString()
                     << "; re-executing";
      if (tracer_ != nullptr) {
        tracer_->Instant(SpanCategory::kCache, "cache_verify_mismatch", app_,
                         /*container=*/-1, entry->spec.id);
      }
    }
    return false;
  }
  CacheHit hit = std::move(lookup).value();
  ++report_.tasks_cached;
  int64_t output_bytes = 0;
  std::vector<std::pair<std::string, int64_t>> produced;
  for (const CachedOutput& out : hit.outputs) {
    if (out.is_value) continue;
    produced.emplace_back(out.path, out.size_bytes);
    output_bytes += out.size_bytes;
  }
  if (tracer_ != nullptr) {
    // value = compute seconds saved, aux = output bytes reused.
    tracer_->Instant(SpanCategory::kCache, "cache_hit", app_,
                     /*container=*/-1, entry->spec.id, hit.node, hit.duration,
                     output_bytes);
  }
  if (shard_ != nullptr) {
    // Recorded as its own event type: replay must not mistake a reused
    // result for an execution, and the analyzer attributes saved time.
    shard_->RecordTaskCacheHit(entry->spec.id, entry->spec.signature,
                               hit.run_id, hit.duration,
                               cluster_->engine()->Now());
    if (tracer_ != nullptr) {
      tracer_->Instant(SpanCategory::kProvenance, "prov_append", app_,
                       /*container=*/-1, entry->spec.id);
    }
  }
  // Not fed to the estimator: nothing ran.
  CompleteInstantly(entry, hit.node, std::move(hit.stdout_value),
                    std::move(produced));
  return true;
}

void HiWayAm::MarkReady(TaskEntry* entry) {
  entry->state = TaskState::kReady;
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanCategory::kTask, "task_ready", app_,
                     /*container=*/-1, entry->spec.id, /*node=*/-1,
                     /*value=*/0.0, entry->attempts);
  }
  scheduler_->EnqueueReadyInterned(entry->spec, entry->inputs);
  ContainerRequest request = scheduler_->RequestFor(entry->spec);
  request.blacklist = entry->blacklist;
  request.cookie = entry->spec.id;
  request.priority = options_.container_priority;
  rm_->SubmitRequest(app_, request);
}

void HiWayAm::OnContainerAllocated(const Container& container,
                                   int64_t cookie) {
  if (crashed_) return;  // a dead AM reacts to nothing
  if (finished_) {
    rm_->ReleaseContainer(container.id);
    return;
  }
  ++report_.scheduler_invocations;
  std::optional<TaskId> picked = scheduler_->SelectTask(container.node);
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanCategory::kScheduler, "am_decision", app_,
                     container.id, picked.value_or(-1), container.node);
  }
  if (!picked.has_value()) {
    // No queued task may run here. For static schedulers that simply
    // means the matching strict request is still pending elsewhere. A
    // dynamic scheduler with queued tasks has *declined* this node:
    // hand the container back and re-request with the declined nodes
    // blacklisted (cumulatively, so the request cannot ping-pong).
    rm_->ReleaseContainer(container.id);
    if (!scheduler_->IsStatic() && scheduler_->QueuedCount() > 0) {
      std::vector<NodeId> blacklist;
      auto chain = decline_chains_.find(cookie);
      if (chain != decline_chains_.end()) {
        blacklist = std::move(chain->second);
        decline_chains_.erase(chain);
      }
      blacklist.push_back(container.node);
      // Keep only the most recently declined half of the cluster so the
      // replacement request always stays satisfiable (a request excluding
      // every worker would never allocate and the engine would stall).
      size_t cap = std::max<size_t>(
          1, static_cast<size_t>(cluster_->num_nodes()) / 2);
      if (blacklist.size() > cap) {
        blacklist.erase(blacklist.begin(),
                        blacklist.end() - static_cast<ptrdiff_t>(cap));
      }
      // Size the replacement like the declined container, which the
      // original request sized: with tailored containers the AM defaults
      // may fit no node at all, and the request would wait forever.
      ContainerRequest request;
      request.vcores = container.vcores;
      request.memory_mb = container.memory_mb;
      request.blacklist = blacklist;
      request.priority = options_.container_priority;
      request.cookie = next_decline_cookie_--;
      decline_chains_[request.cookie] = std::move(blacklist);
      rm_->SubmitRequest(app_, request);
    }
    return;
  }
  decline_chains_.erase(cookie);
  auto it = tasks_.find(*picked);
  HIWAY_CHECK(it != tasks_.end());
  LaunchTask(&it->second, container);
}

void HiWayAm::LaunchTask(TaskEntry* entry, const Container& container) {
  entry->state = TaskState::kRunning;
  entry->container = container.id;
  entry->launched_at = cluster_->engine()->Now();
  ++entry->attempts;
  ++entry->attempt_epoch;
  ++running_;
  ++report_.task_attempts;
  if (shard_ != nullptr) {
    shard_->RecordTaskStart(entry->spec, container.node,
                            cluster_->node(container.node).name,
                            cluster_->engine()->Now());
    if (tracer_ != nullptr) {
      tracer_->Instant(SpanCategory::kProvenance, "prov_append", app_,
                       /*container=*/-1, entry->spec.id);
    }
  }
  TaskId id = entry->spec.id;
  int epoch = entry->attempt_epoch;
  TaskSpec spec = entry->spec;
  NodeId node = container.node;
  int vcores = container.vcores;
  ContainerId cid = container.id;
  if (tracer_ != nullptr) {
    tracer_->Begin(SpanCategory::kTask, "localize", app_, cid, id, node);
  }
  // Container localisation / process start overhead, then execute.
  cluster_->engine()->ScheduleAfter(
      options_.task_launch_overhead_s,
      [this, id, epoch, spec, node, vcores, cid] {
        if (tracer_ != nullptr) {
          tracer_->End(SpanCategory::kTask, "localize", app_, cid, id, node,
                       options_.task_launch_overhead_s);
          tracer_->Begin(SpanCategory::kTask, "execute", app_, cid, id, node);
        }
        executor_->Execute(spec, node, vcores,
                           [this, id, epoch](TaskAttemptOutcome outcome) {
                             OnAttemptDone(id, epoch, std::move(outcome));
                           });
      });
}

void HiWayAm::OnAttemptDone(TaskId id, int epoch, TaskAttemptOutcome outcome) {
  if (crashed_) return;  // the dead AM's executor flows finish unobserved
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  TaskEntry* entry = &it->second;
  if (entry->attempt_epoch != epoch || entry->state != TaskState::kRunning) {
    // A superseded attempt (its container was lost and the task already
    // re-queued); ignore.
    return;
  }
  --running_;
  ContainerId cid = entry->container;
  rm_->ReleaseContainer(entry->container);
  entry->container = kInvalidContainer;

  const TaskResult& result = outcome.result;
  if (tracer_ != nullptr) {
    tracer_->End(SpanCategory::kTask, "execute", app_, cid, id, result.node,
                 result.Makespan());
    for (const auto& t : outcome.transfers) {
      tracer_->Instant(SpanCategory::kTask,
                       t.stage_in ? "stage_in" : "stage_out", app_, cid, id,
                       result.node, t.seconds, t.size_bytes);
    }
  }
  if (shard_ != nullptr) {
    shard_->RecordTaskEnd(result, cluster_->node(result.node).name);
    for (const auto& t : outcome.transfers) {
      if (t.stage_in) {
        shard_->RecordFileStageIn(id, t.path, t.size_bytes, t.seconds,
                                  cluster_->engine()->Now());
      } else {
        shard_->RecordFileStageOut(id, t.path, t.size_bytes, t.seconds,
                                   cluster_->engine()->Now());
      }
    }
    if (tracer_ != nullptr) {
      tracer_->Instant(SpanCategory::kProvenance, "prov_append", app_,
                       /*container=*/-1, id, /*node=*/-1,
                       /*value=*/0.0,
                       static_cast<int64_t>(1 + outcome.transfers.size()));
    }
  }

  if (!result.status.ok()) {
    // Transient I/O errors (Unavailable) are not the node's fault and
    // never count toward blacklisting it.
    HandleAttemptFailure(
        entry, result.status,
        result.status.IsUnavailable() ? kInvalidNode : result.node);
    return;
  }

  estimator_->Observe(result.signature, result.node, result.Makespan());
  if (result_cache_ != nullptr) {
    // Seal only now — after stage-out put every output durably in DFS
    // (Publish independently re-stats them and refuses otherwise). A
    // crashed AM never reaches this point, so a crash window cannot
    // leave a cache entry pointing at unreplicated outputs.
    result_cache_->Publish(entry->spec, result, report_.run_id,
                           cluster_->node(result.node).name);
  }
  Complete(entry, std::move(outcome.result));
  // Finishes the workflow itself on failure.
  DeliverCompletions();
}

void HiWayAm::HandleAttemptFailure(TaskEntry* entry, const Status& failure,
                                   NodeId blame) {
  if (blame != kInvalidNode &&
      options_.task_retry.ShouldBlacklist(++entry->node_failures[blame])) {
    entry->blacklist.push_back(blame);
  }
  ++report_.failed_attempts;
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanCategory::kTask, "task_retry", app_,
                     /*container=*/-1, entry->spec.id, /*node=*/-1,
                     /*value=*/0.0, entry->attempts);
  }
  if (options_.task_retry.Exhausted(entry->attempts)) {
    FinishWorkflow(failure.WithContext(StrFormat(
        "task %lld ('%s') failed %d attempts",
        static_cast<long long>(entry->spec.id), entry->spec.signature.c_str(),
        entry->attempts)));
    return;
  }
  // Retry elsewhere (Sec. 3.1: "re-try failed tasks, requesting YARN to
  // allocate the additional containers on different compute nodes");
  // MarkReady forwards the blacklist with the fresh container request.
  RetryLater(entry);
}

void HiWayAm::RetryLater(TaskEntry* entry) {
  double delay = options_.task_retry.BackoffBefore(entry->attempts + 1);
  if (delay <= 0.0) {
    MarkReady(entry);
    return;
  }
  entry->state = TaskState::kReady;  // awaiting its delayed re-queue
  TaskId id = entry->spec.id;
  int epoch = entry->attempt_epoch;
  ++pending_retries_;
  cluster_->engine()->ScheduleAfter(delay, [this, id, epoch] {
    --pending_retries_;
    if (finished_ || crashed_) return;
    auto it = tasks_.find(id);
    if (it == tasks_.end() || it->second.attempt_epoch != epoch ||
        it->second.state != TaskState::kReady) {
      return;
    }
    MarkReady(&it->second);
  });
}

void HiWayAm::RegisterProducedFiles(const TaskResult& result) {
  for (const auto& [path, size] : result.produced_files) {
    FileId file = dfs_->Intern(path);
    file_producer_[file] = result.id;
    // The cache (if any) sealed its entry before this point, so a pinned
    // output is already visible to the collector here.
    if (gc_ != nullptr) gc_->RegisterProduced(report_.run_id, file, size);
    auto waiters = waiting_on_file_.find(file);
    if (waiters == waiting_on_file_.end()) continue;
    std::set<TaskId> ids = std::move(waiters->second);
    waiting_on_file_.erase(file);
    for (TaskId id : ids) {
      auto it = tasks_.find(id);
      if (it == tasks_.end()) continue;
      TaskEntry* entry = &it->second;
      if (tracer_ != nullptr) {
        // Dependency edge: consumer `id` waited on this producer's file.
        tracer_->Instant(SpanCategory::kTask, "task_dep", app_,
                         /*container=*/-1, id, /*node=*/-1, /*value=*/0.0,
                         result.id);
      }
      if (--entry->missing_inputs == 0 &&
          entry->state == TaskState::kWaiting) {
        --waiting_;
        // Now that all inputs exist their content ids are final, so the
        // cache key is computable: a downstream task whose upstream was
        // itself a hit can cascade into a hit too.
        MarkReadyOrServe(entry);
      }
    }
  }
}

void HiWayAm::MaybeFinish() {
  if (finished_) return;
  if (running_ > 0 || scheduler_->QueuedCount() > 0 ||
      pending_retries_ > 0 || !completions_.empty()) {
    return;
  }
  if (waiting_ > 0) {
    // Nothing is running or queued, yet tasks still await inputs: those
    // files will never appear. waiting_on_file_ holds each of them once,
    // however many tasks wait on it, in its (deterministic) table order;
    // the list is capped.
    constexpr size_t kMaxListedChars = 200;
    std::string missing;
    size_t listed = 0;
    for (const auto& [file, waiters] : waiting_on_file_) {
      if (missing.size() >= kMaxListedChars) break;
      if (listed++ > 0) missing += ", ";
      missing += dfs_->PathOf(file);
    }
    if (missing.size() > kMaxListedChars) {
      missing.replace(kMaxListedChars, std::string::npos, "...");
    }
    if (listed < waiting_on_file_.size()) {
      missing += StrFormat(" (+%zu more)", waiting_on_file_.size() - listed);
    }
    FinishWorkflow(Status::FailedPrecondition(
        "workflow deadlocked; unresolvable inputs: " + missing));
    return;
  }
  if (!source_->IsDone()) {
    FinishWorkflow(Status::RuntimeError(
        "workflow source reports pending work but no tasks are eligible"));
    return;
  }
  FinishWorkflow(Status::OK());
}

void HiWayAm::FinishWorkflow(Status status) {
  if (finished_) return;
  finished_ = true;
  report_.status = status;
  report_.finished_at = cluster_->engine()->Now();
  if (gc_ != nullptr && submitted_ && source_ != nullptr) {
    // Targets may only have resolved during execution (iterative
    // control flow); refresh them so the final pass never collects one.
    gc_->SetTargets(report_.run_id, source_->Targets());
    GcScopeReport gc_report = gc_->EndScope(report_.run_id);
    report_.peak_footprint_bytes = gc_report.peak_live_bytes;
    report_.gc_files_collected = gc_report.files_collected;
    report_.gc_bytes_collected = gc_report.bytes_collected;
  }
  if (tracer_ != nullptr) {
    tracer_->End(SpanCategory::kWorkflow, "workflow", app_,
                 /*container=*/-1, /*task=*/-1, /*node=*/-1,
                 report_.Makespan());
  }
  // Seals the shard: a terminal run accepts no further events.
  if (shard_ != nullptr) {
    shard_->RecordWorkflowEnd(report_.finished_at, status.ok());
  }
  if (submitted_) {
    rm_->UnregisterApplication(app_);
  }
  if (finish_listener_) finish_listener_(report_);
}

void HiWayAm::OnContainerLost(const Container& container,
                              ContainerLossReason reason) {
  if (finished_ || crashed_) return;
  for (auto& [id, entry] : tasks_) {
    if (entry.state != TaskState::kRunning ||
        entry.container != container.id) {
      continue;
    }
    --running_;
    entry.container = kInvalidContainer;
    ++entry.attempt_epoch;  // discard the in-flight outcome
    if (reason == ContainerLossReason::kPreempted ||
        reason == ContainerLossReason::kDrained) {
      // A scheduler-initiated reclaim, or a container vacated off a
      // draining node: not a fault. Restore the attempt budget, blame no
      // node, and re-queue immediately — the RM re-places the task once
      // the guarantees settle, and a draining node takes no placements.
      bool preempted = reason == ContainerLossReason::kPreempted;
      --entry.attempts;
      ++(preempted ? report_.tasks_preempted : report_.tasks_drained);
      if (tracer_ != nullptr) {
        tracer_->Instant(SpanCategory::kTask,
                         preempted ? "task_preempted" : "task_drained", app_,
                         container.id, id, container.node);
      }
      MarkReady(&entry);
      return;
    }
    // Every other loss is a failed attempt. A dead node is never blamed:
    // the RM already stopped placing there, and blacklisting it forever
    // would only shrink the request's candidate set once it recovers.
    HandleAttemptFailure(
        &entry,
        Status::RuntimeError(StrFormat("container %lld lost (%s)",
                                       static_cast<long long>(container.id),
                                       ToString(reason))),
        reason == ContainerLossReason::kNodeLost ? kInvalidNode
                                                 : container.node);
    return;
  }
}

void HiWayAm::OnNodeDraining(NodeId node, double deadline) {
  if (finished_ || crashed_) return;
  double now = cluster_->engine()->Now();
  // Margin absorbing runtime-estimate noise: a task must be projected to
  // finish comfortably before the node disappears to be worth keeping.
  constexpr double kSafetyMarginS = 5.0;
  // Snapshot the victims first — DrainContainer re-enters
  // OnContainerLost, which mutates tasks_.
  std::vector<ContainerId> vacate;
  std::vector<Container> running = rm_->RunningContainers();
  for (const Container& c : running) {
    if (c.node != node || c.app != app_ || c.is_am) continue;
    const TaskEntry* owner = nullptr;
    for (const auto& [id, entry] : tasks_) {
      if (entry.state == TaskState::kRunning && entry.container == c.id) {
        owner = &entry;
        break;
      }
    }
    if (owner == nullptr) continue;
    double estimate = estimator_ != nullptr
                          ? estimator_->Estimate(owner->spec.signature, node)
                          : 0.0;
    if (estimate <= 0.0 && estimator_ != nullptr) {
      estimate = estimator_->MeanEstimate(owner->spec.signature,
                                          cluster_->num_nodes());
    }
    double projected_finish = owner->launched_at +
                              options_.task_launch_overhead_s + estimate;
    // Requeue only tasks the estimator says CANNOT finish in the window.
    // With no estimate (a signature that has never completed), keeping is
    // the right bet: if the task finishes, all its progress is saved; if
    // it does not, it dies at the deadline — exactly what an unwarned
    // kill would have done anyway, so the warning costs nothing.
    bool vacate_it = estimate > 0.0 &&
                     projected_finish + kSafetyMarginS > deadline;
    if (vacate_it) vacate.push_back(c.id);
  }
  for (ContainerId cid : vacate) {
    if (tracer_ != nullptr) {
      tracer_->Instant(SpanCategory::kMembership, "drain_requeue", app_, cid,
                       /*task=*/-1, node, deadline - now);
    }
    rm_->DrainContainer(cid);
  }
}

Result<WorkflowReport> HiWayAm::RunToCompletion() {
  if (!submitted_) {
    return Status::FailedPrecondition("Submit() a workflow first");
  }
  cluster_->engine()->RunUntilPredicate([this] { return finished_; });
  if (!finished_) {
    return Status::RuntimeError(
        "engine ran out of events before the workflow finished");
  }
  return report_;
}

}  // namespace hiway
