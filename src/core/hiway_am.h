// The Hi-WAY application master: the iterative Workflow Driver (Sec. 3.3)
// plus the glue between the language front-ends, the Workflow Scheduler,
// YARN, HDFS, and the Provenance Manager (Fig. 1 of the paper).
//
// Lifecycle (Fig. 3): parse -> discover tasks -> request containers for
// ready tasks -> on allocation let the scheduler pick a task -> execute ->
// on completion register outputs, possibly discover new tasks -> repeat
// until the source is done. Every completion (executed, memoised from a
// recovery trace or served from the result cache) is queued and handed
// on by one loop, DeliverCompletions. Failed attempts and lost containers
// take one failure path, HandleAttemptFailure, and retry on other nodes.

#ifndef HIWAY_CORE_HIWAY_AM_H_
#define HIWAY_CORE_HIWAY_AM_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cache/result_cache.h"
#include "src/cache/staging_cache.h"
#include "src/common/flat_hash.h"
#include "src/common/retry_policy.h"
#include "src/core/provenance.h"
#include "src/core/runtime_estimator.h"
#include "src/core/scheduler.h"
#include "src/core/task_executor.h"
#include "src/gc/intermediate_gc.h"
#include "src/hdfs/dfs.h"
#include "src/lang/workflow.h"
#include "src/tools/tool_registry.h"
#include "src/yarn/yarn.h"

namespace hiway {

struct HiWayOptions {
  /// Default container sizing (the paper: identical containers per run;
  /// a TaskSpec may override).
  int container_vcores = 1;
  double container_memory_mb = 1024.0;
  /// AM container sizing / placement (kInvalidNode = RM chooses).
  int am_vcores = 1;
  double am_memory_mb = 1024.0;
  NodeId am_node = kInvalidNode;
  /// RM scheduler queue this workflow's application is charged to
  /// (multi-tenant service mode; the queue must be configured on the RM).
  std::string rm_queue = "default";
  /// Preemption priority stamped on every task-container request: when
  /// the RM must reclaim capacity for a starved queue it kills
  /// lower-priority containers first (docs/scheduling-model.md). Batch
  /// workflows should run below interactive ones.
  int container_priority = 0;
  /// Task-attempt retry policy (max attempts, backoff, blacklisting) —
  /// shared vocabulary with the service's AM-attempt loop. Defaults:
  /// 3 attempts, immediate retry, blacklist a node after one failure.
  RetryPolicy task_retry;
  /// Which AM attempt of its submission this is (1 = first launch);
  /// informational, stamped into the report and the YARN app name.
  int am_attempt = 1;
  /// Fixed per-task container launch latency (localisation, JVM start).
  double task_launch_overhead_s = 1.0;
  /// Seed for runtime noise / failure injection.
  uint64_t seed = 42;
  /// Custom-tailored containers (the paper's Sec. 5 future work): instead
  /// of identical containers, each task's container is sized to its
  /// tool's useful parallelism (vcores = min(profile max_threads,
  /// container_vcores); single-threaded tools get one core). Avoids
  /// under-utilisation when fat containers run thin tools.
  bool tailor_containers = false;
};

/// Final report of one workflow execution.
struct WorkflowReport {
  Status status;
  std::string workflow_name;
  std::string run_id;
  double started_at = 0.0;
  double finished_at = 0.0;
  int tasks_completed = 0;
  /// Of tasks_completed, how many were memoised from a recovery trace
  /// instead of re-executed (AM failover; 0 outside recovery).
  int tasks_memoised = 0;
  /// Of tasks_completed, how many were served from the cluster-wide
  /// result cache (prior submissions' sealed outputs) without running.
  int tasks_cached = 0;
  int task_attempts = 0;
  int failed_attempts = 0;
  /// Containers lost to RM preemption (scheduler-initiated reclaims).
  /// Unlike failed_attempts these never consume the task retry budget.
  int tasks_preempted = 0;
  /// Containers vacated off draining nodes (spot revocation warnings,
  /// autoscaler decommissions). Same retry-budget exemption as
  /// preemption — the node, not the task, is at fault.
  int tasks_drained = 0;
  /// AM attempt number this report belongs to (1 = first launch).
  int am_attempt = 1;
  /// Scheduling decisions taken by the AM (Fig. 6 master-load accounting).
  int64_t scheduler_invocations = 0;
  /// Traced storage footprint (logical bytes; 0 without a GC attached):
  /// high-water mark of staged inputs + live intermediates, plus what the
  /// collector reclaimed (docs/storage-model.md).
  int64_t peak_footprint_bytes = 0;
  int64_t gc_files_collected = 0;
  int64_t gc_bytes_collected = 0;

  double Makespan() const { return finished_at - started_at; }
};

class HiWayAm : public AmCallbacks {
 public:
  HiWayAm(Cluster* cluster, ResourceManager* rm, Dfs* dfs,
          ToolRegistry* tools, ProvenanceManager* provenance,
          RuntimeEstimator* estimator, HiWayOptions options);
  ~HiWayAm() override;
  HiWayAm(const HiWayAm&) = delete;
  HiWayAm& operator=(const HiWayAm&) = delete;

  /// Registers the AM with YARN, parses the workflow, and starts issuing
  /// container requests. Rejects static schedulers for iterative sources
  /// (the paper's Cuneiform restriction). Neither pointer is owned.
  Status Submit(WorkflowSource* source, WorkflowScheduler* scheduler);

  /// Provenance-replay recovery (AM failover): call before Submit() with
  /// the prior attempts' provenance events. Tasks whose signature
  /// completed successfully in the trace — and whose recorded file
  /// outputs still exist in DFS — are memoised (completed instantly from
  /// the record, outputs re-registered, stdout replayed for iterative
  /// sources) instead of re-executed. The workflow resumes from the
  /// frontier of incomplete work.
  void SetRecoveryTrace(const std::vector<ProvenanceEvent>& events);

  /// Simulates the AM process dying: every subsequent callback and
  /// executor completion is ignored, and the RM is told the heartbeats
  /// stopped (ResourceManager::AmSilent), so its liveness timeout (or a
  /// node kill) is what surfaces the failure. Irreversible.
  void Crash();
  bool crashed() const { return crashed_; }

  /// Drives the engine until the workflow finishes; returns the report.
  /// (Convenience for single-workflow experiments; multi-workflow setups
  /// run the engine themselves and poll finished().)
  Result<WorkflowReport> RunToCompletion();

  bool finished() const { return finished_; }
  const WorkflowReport& report() const { return report_; }

  /// YARN application id once Submit() succeeded (per-tenant metrics).
  ApplicationId app() const { return app_; }

  /// Attaches the cluster-wide result cache (docs/data-cache.md): before
  /// scheduling a ready task the AM asks the cache for a sealed result of
  /// the same invocation (tenant-scoped); a hit completes the task
  /// instantly, and every successful attempt is published back. `tenant`
  /// scopes both lookups and publishes (empty = the shared default
  /// namespace). Set before Submit(); the cache is not owned.
  void SetResultCache(ResultCache* cache, std::string tenant) {
    result_cache_ = cache;
    cache_tenant_ = std::move(tenant);
  }

  /// Attaches the intermediate-data GC (src/gc/): the AM then opens a
  /// scope for its run, registers every task's inputs (before
  /// memoisation, so replayed completions release pins in order) and
  /// every produced file, and lets the collector delete intermediates
  /// whose last consumer completed. Set before Submit(); not owned.
  void SetGc(IntermediateGc* gc) { gc_ = gc; }

  /// Attaches the per-NodeManager staging cache: stage-in of an input
  /// already resident on the chosen node is served locally instead of
  /// re-reading from DFS. Forwarded to the storage adapter; set before
  /// Submit(). Not owned; shared across AMs and workflows.
  void SetStagingCache(StagingCache* staging);

  /// Attaches an execution tracer (src/obs/tracer.h): the AM then
  /// records workflow/task-attempt span events (ready, localize,
  /// execute, stage transfers, dependency edges, retries, memoisation)
  /// feeding the TraceAnalyzer's critical path. Set before Submit().
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

  /// Invoked exactly once when the workflow reaches a terminal state
  /// (success or failure), after the report is final. Lets a service run
  /// many AMs concurrently without polling finished(). The listener must
  /// not destroy the AM synchronously (it is called from AM code).
  void set_finish_listener(std::function<void(const WorkflowReport&)> fn) {
    finish_listener_ = std::move(fn);
  }

  // AmCallbacks:
  void OnContainerAllocated(const Container& container,
                            int64_t cookie) override;
  void OnContainerLost(const Container& container,
                       ContainerLossReason reason) override;
  /// Drain triage: tasks on the doomed node that the runtime estimator
  /// projects CANNOT finish before `deadline` are proactively vacated
  /// (ResourceManager::DrainContainer) so they requeue on the surviving
  /// fleet instead of dying at the deadline. Everything else — including
  /// tasks with no estimate yet — keeps running: a kept task that
  /// finishes saves all its progress, and one that overstays loses no
  /// more than an unwarned kill would have taken.
  void OnNodeDraining(NodeId node, double deadline) override;

 private:
  enum class TaskState { kWaiting, kReady, kRunning, kDone };

  struct TaskEntry {
    TaskSpec spec;
    TaskState state = TaskState::kWaiting;
    int attempts = 0;
    int attempt_epoch = 0;  // invalidates outcomes of superseded attempts
    std::vector<NodeId> blacklist;
    /// Attributed failures per node (feeds RetryPolicy::ShouldBlacklist;
    /// node losses and transient I/O errors are not attributed).
    std::map<NodeId, int> node_failures;
    /// spec.input_files interned, in order (the scheduler reads them);
    /// released once the task is done.
    std::vector<FileId> inputs;
    int missing_inputs = 0;  // distinct input files not yet in DFS
    ContainerId container = kInvalidContainer;
    /// Virtual time the current attempt's container was handed to
    /// LaunchTask (drain triage: projected finish = launched_at +
    /// overhead + estimate).
    double launched_at = 0.0;
  };

  /// One successfully completed task reconstructed from a recovery
  /// trace, consumed by signature in recorded completion order.
  struct MemoEntry {
    std::vector<std::pair<std::string, int64_t>> outputs;
    std::string stdout_value;
    int32_t node = -1;
    double duration = 0.0;
  };

  /// Assigns an AM task id to every spec the source left without one and
  /// applies option defaults to its container sizing; ResourceExhausted
  /// when no registered node could ever host a task's container.
  Status PrepareTasks(std::vector<TaskSpec>* tasks);

  Status AdmitTasks(std::vector<TaskSpec> tasks);
  void MarkReady(TaskEntry* entry);
  /// MarkReady unless the result cache already holds this invocation's
  /// sealed outputs for our tenant — then the task completes instantly,
  /// like a recovery memoisation.
  void MarkReadyOrServe(TaskEntry* entry);
  /// Attempts to complete `entry` from the result cache. False = miss
  /// (or verification evicted the entry); the task must execute.
  bool TryCacheHit(TaskEntry* entry);
  void LaunchTask(TaskEntry* entry, const Container& container);
  void OnAttemptDone(TaskId id, int epoch, TaskAttemptOutcome outcome);
  /// The one failure path of an attempt, whether its tool failed or its
  /// container was lost: charges `blame` (kInvalidNode = no node is at
  /// fault) towards blacklisting, traces the retry, and re-queues the
  /// task or, once the retry budget is spent, fails the workflow.
  void HandleAttemptFailure(TaskEntry* entry, const Status& failure,
                            NodeId blame);
  /// Re-queues a failed task, honouring the retry policy's backoff.
  void RetryLater(TaskEntry* entry);
  void RegisterProducedFiles(const TaskResult& result);
  void MaybeFinish();
  void FinishWorkflow(Status status);
  /// Completes `entry` from the recovery memo if possible (signature
  /// recorded as successful, file outputs still present in DFS).
  bool TryMemoise(TaskEntry* entry);
  /// Marks `entry` done and queues its result for DeliverCompletions.
  void Complete(TaskEntry* entry, TaskResult result);
  /// Completes `entry` without running it, at the current instant, from a
  /// result recorded earlier (recovery memo or result cache) on `node`.
  void CompleteInstantly(
      TaskEntry* entry, NodeId node, std::string stdout_value,
      std::vector<std::pair<std::string, int64_t>> produced);
  /// The one completion loop: for each queued completion registers its
  /// outputs (unblocking waiters), releases its GC pins, hands it to the
  /// source and admits the tasks it discovers, which may complete
  /// instantly in turn. Then finishes the workflow if no work is left.
  /// Re-entrancy safe. On failure finishes the workflow and returns the
  /// failure.
  Status DeliverCompletions();

  Cluster* cluster_;
  ResourceManager* rm_;
  Dfs* dfs_;
  ToolRegistry* tools_;
  ProvenanceManager* provenance_;
  /// This attempt's own provenance shard (owned by provenance_); set by
  /// Submit, appended to directly so recording never crosses AMs.
  ProvenanceShard* shard_ = nullptr;
  RuntimeEstimator* estimator_;
  HiWayOptions options_;

  WorkflowSource* source_ = nullptr;
  WorkflowScheduler* scheduler_ = nullptr;
  std::unique_ptr<TaskExecutor> executor_;
  std::unique_ptr<DfsStorageAdapter> storage_;

  ApplicationId app_ = -1;
  bool submitted_ = false;
  bool finished_ = false;
  bool crashed_ = false;
  WorkflowReport report_;
  std::function<void(const WorkflowReport&)> finish_listener_;

  std::map<TaskId, TaskEntry> tasks_;
  /// Tasks waiting on each absent input file, released in ascending id.
  FlatHashMap<FileId, std::set<TaskId>> waiting_on_file_;
  /// Which completed task produced each DFS file (trace dependency
  /// edges for consumers admitted after their producer finished).
  FlatHashMap<FileId, TaskId> file_producer_;
  /// Recovery memo: signature -> recorded completions, oldest first.
  std::map<std::string, std::deque<MemoEntry>> memo_;
  /// Completed tasks' results awaiting DeliverCompletions.
  std::deque<TaskResult> completions_;
  bool delivering_ = false;
  int pending_retries_ = 0;
  int running_ = 0;
  int waiting_ = 0;
  TaskId next_task_id_ = 1;
  /// Decline chains: when a dynamic scheduler declines a container, the
  /// replacement request carries the nodes declined so far (keyed by a
  /// negative cookie) so a request cannot ping-pong between bad nodes.
  std::map<int64_t, std::vector<NodeId>> decline_chains_;
  int64_t next_decline_cookie_ = -1;
  Tracer* tracer_ = nullptr;
  /// Cluster-wide result cache (nullptr = caching off) and the tenant
  /// namespace this workflow reads from / publishes into.
  ResultCache* result_cache_ = nullptr;
  std::string cache_tenant_;
  /// Intermediate-data collector (nullptr = GC off). The AM registers
  /// interests; the service owns scope teardown across AM failover.
  IntermediateGc* gc_ = nullptr;
};

}  // namespace hiway

#endif  // HIWAY_CORE_HIWAY_AM_H_
