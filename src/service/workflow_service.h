// Multi-tenant workflow submission gateway (the serving-stack layer the
// paper's "one AM per workflow" scalability pillar implies but leaves to
// YARN): many workflow submissions — any language, any policy — run as
// concurrent Hi-WAY AMs inside one shared deployment, with admission
// control in front of the RM:
//
//  * per-queue concurrency caps (max running AMs per queue),
//  * bounded backlogs with reject backpressure (a full queue refuses
//    further submissions instead of growing without bound),
//  * per-submission deadlines (a submission still queued past its
//    deadline expires and never launches; one that finishes late is
//    flagged),
//  * deterministic replay (per-submission seeds derive from the service
//    base seed and the submission id, so the same burst under the same
//    configuration yields bit-identical per-workflow reports).
//
// Underneath, the service sets the ResourceManager's policy (fifo |
// capacity | fair DRF, src/yarn/rm_scheduler.h) and
// its queues, so resource sharing between the admitted AMs follows the
// selected multi-tenancy policy.

#ifndef HIWAY_SERVICE_WORKFLOW_SERVICE_H_
#define HIWAY_SERVICE_WORKFLOW_SERVICE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/retry_policy.h"
#include "src/core/client.h"
#include "src/core/hiway_am.h"
#include "src/infra/karamel.h"

namespace hiway {

class FaultInjector;

using SubmissionId = int64_t;

/// One service queue: RM share configuration plus admission limits.
struct ServiceQueueOptions {
  RmQueueConfig rm;
  /// Maximum workflows of this queue running concurrently (each running
  /// workflow is one AM). Further submissions wait in the backlog.
  int max_concurrent_ams = 4;
  /// Maximum submissions waiting in the backlog; beyond this, Submit()
  /// rejects with ResourceExhausted (backpressure).
  int max_backlog = 64;
};

struct WorkflowServiceOptions {
  /// RM policy (ParseRmPolicy): "fifo" | "capacity" | "fair". Create()
  /// switches the deployment's RM to it; unknown names fail Create().
  std::string rm_scheduler = "fifo";
  /// Queues; empty means one "default" queue with the defaults above.
  std::vector<ServiceQueueOptions> queues;
  /// Base seed; per-submission seeds are derived from it and the
  /// submission id (deterministic replay).
  uint64_t base_seed = 42;
  /// Workflow scheduling policy when a submission names none.
  std::string default_policy = "data-aware";
  /// AM failover policy: when the RM declares a submission's AM failed
  /// (node loss, heartbeat timeout, injected crash), the service launches
  /// a fresh AM attempt — up to max_attempts total, with exponential
  /// backoff between attempts — that recovers from the submission's
  /// provenance trace (completed tasks are memoised, not re-executed).
  /// Only submissions with a source_factory are recoverable.
  RetryPolicy am_retry{.max_attempts = 3, .backoff_base_s = 2.0};
  /// Footprint-aware admission (docs/storage-model.md): before starting a
  /// submission's AM, check that its projected raw storage footprint fits
  /// into the DFS capacity left over after the baseline captured at
  /// service creation and the footprints of already-running workflows. A
  /// submission that can never fit fails ResourceExhausted; one that will
  /// fit once a running workflow finishes waits in its backlog. No-op
  /// when the DFS has no capacity limit.
  bool footprint_admission = false;
};

enum class SubmissionState {
  kQueued,      // admitted, waiting for a concurrency slot
  kRunning,     // AM is live
  kRecovering,  // AM died; a failover attempt is pending (non-terminal)
  kSucceeded,   // terminal: workflow completed
  kFailed,      // terminal: workflow or launch failed
  kExpired,     // terminal: deadline passed while still queued
};

const char* ToString(SubmissionState state);

struct SubmissionOptions {
  std::string queue = "default";
  /// Workflow scheduling policy ("fcfs" | "data-aware" | ...); empty =
  /// service default.
  std::string policy;
  /// Result-cache tenant namespace: hits only ever come from runs of the
  /// same tenant (docs/data-cache.md). Empty = the submission's queue
  /// name, so queue isolation extends to cached results by default.
  std::string tenant;
  /// Wall-clock (virtual) deadline relative to submission; 0 = none.
  double deadline_s = 0.0;
  /// Container sizing etc. The seed is always overridden by the service
  /// (see WorkflowServiceOptions::base_seed), rm_queue by `queue` and
  /// am_attempt by the attempt being launched.
  HiWayOptions hiway;
  /// Builds a fresh WorkflowSource for an AM failover attempt (a source
  /// consumed by a crashed attempt cannot be reused — iterative sources
  /// carry state). SubmitStaged() installs one automatically; without a
  /// factory an AM failure is terminal for the submission.
  std::function<Result<std::unique_ptr<WorkflowSource>>()> source_factory;
  /// Projected *additional* logical bytes the workflow materialises
  /// beyond its already-staged inputs, for footprint admission. -1 (the
  /// default) auto-estimates via src/gc/footprint.h from the submitted
  /// source's task list when it is a StaticWorkflowSource (iterative
  /// sources bypass the gate); 0 bypasses the gate for this submission.
  int64_t footprint_bytes = -1;
};

struct SubmissionRecord {
  SubmissionId id = -1;
  std::string name;
  std::string queue;
  std::string policy;
  SubmissionState state = SubmissionState::kQueued;
  double submitted_at = 0.0;
  double started_at = -1.0;
  double finished_at = -1.0;
  double deadline_s = 0.0;
  /// Finished after its deadline (deadlines never kill running AMs).
  bool deadline_missed = false;
  /// AM attempts launched so far (1 after the first start).
  int am_attempts = 0;
  /// AM failures the RM reported for this submission.
  int am_failures = 0;
  /// Per-failover recovery latency: AM declared dead -> replacement AM
  /// registered (includes the retry backoff).
  std::vector<double> recovery_latency_s;
  /// Tasks the dead attempt had completed when it failed (re-execution
  /// waste accounting: completed_at_last_failure - tasks_memoised of the
  /// final report = work redone).
  int completed_at_last_failure = 0;
  /// Estimated peak logical footprint (staged inputs + live
  /// intermediates) from src/gc/footprint.h; 0 when not estimated.
  /// Compare with report.peak_footprint_bytes (the traced actual).
  int64_t footprint_estimate_bytes = 0;
  /// Valid once the state is kSucceeded or kFailed.
  WorkflowReport report;

  bool Terminal() const {
    return state == SubmissionState::kSucceeded ||
           state == SubmissionState::kFailed ||
           state == SubmissionState::kExpired;
  }
  /// Admission-queue wait: submission to AM launch (terminal-but-never-
  /// started submissions waited until their terminal time).
  double QueueWait() const {
    if (started_at >= 0.0) return started_at - submitted_at;
    if (finished_at >= 0.0) return finished_at - submitted_at;
    return 0.0;
  }
};

/// Per-queue admission counters.
struct ServiceQueueCounters {
  int64_t submitted = 0;
  int64_t rejected = 0;
  int64_t expired = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
};

class WorkflowService {
 public:
  /// Configures the deployment's RM (scheduler strategy + queues) and
  /// readies the service. Fails on an unknown scheduler name or
  /// duplicate queue names. Does not take ownership of the deployment.
  static Result<std::unique_ptr<WorkflowService>> Create(
      Deployment* deployment, WorkflowServiceOptions options);

  ~WorkflowService();

  /// Admits a workflow for execution, or rejects it (ResourceExhausted)
  /// when the target queue's backlog is full; unknown queues are
  /// InvalidArgument. Takes ownership of the source.
  Result<SubmissionId> Submit(std::string name,
                              std::unique_ptr<WorkflowSource> source,
                              SubmissionOptions options = {});

  /// Convenience: submit a workflow staged in the deployment (by its
  /// recipe name), building the source via HiWayClient.
  Result<SubmissionId> SubmitStaged(const std::string& staged_name,
                                    SubmissionOptions options = {});

  /// Drives the engine until every submission is terminal.
  Status RunToCompletion();

  /// Node currently hosting the submission's AM container (fault
  /// injection: pick the node to kill). NotFound while not running.
  Result<NodeId> AmNode(SubmissionId id) const;

  /// Simulates the AM process of a running submission crashing (the node
  /// stays healthy); the RM times out the AM's heartbeat lease and the
  /// failover path takes over. NotFound when it has no live AM.
  Status InjectAmCrash(SubmissionId id);

  /// Wires a FaultInjector's handlers to this service's deployment:
  /// kill-node and kill-am-node are ElasticCluster::KillNode and
  /// spot-revoke is ElasticCluster::RevokeNode (the membership plane's
  /// one departure sequence: RM, DFS, staging and result caches,
  /// node-hours), am-crash targets running submissions, fail-container
  /// targets running task (non-AM) containers. A fault whose target is
  /// dead, draining (for spot-revoke), beyond the fleet or not running
  /// does nothing and is not counted. Call once after Create().
  void InstallFaultHandlers(FaultInjector* injector);

  /// Marks the highest ⌈f·workers⌉ worker nodes as spot instances:
  /// spot-revoke faults then only ever target those. Unset (or f <= 0)
  /// leaves the injector's fallback — any alive node is fair game.
  void SetSpotFraction(double f) { spot_fraction_ = f; }

  bool Idle() const;
  int running_ams() const;
  int running_ams(const std::string& queue) const;
  int backlog(const std::string& queue) const;

  /// Raw bytes currently committed to running workflows by footprint
  /// admission, and the budget they are admitted against (DFS capacity
  /// minus the baseline stored at service creation). Both 0 when
  /// footprint admission is off or the DFS is uncapped.
  int64_t committed_footprint_bytes() const {
    return committed_footprint_bytes_;
  }
  int64_t footprint_budget_bytes() const { return footprint_budget_bytes_; }

  const SubmissionRecord* record(SubmissionId id) const;
  /// All records, ascending submission id.
  std::vector<SubmissionRecord> Records() const;
  const ServiceQueueCounters* queue_counters(const std::string& queue) const;
  std::vector<std::string> QueueNames() const;

  const WorkflowServiceOptions& options() const { return options_; }
  Deployment* deployment() const { return deployment_; }

 private:
  struct Submission {
    std::unique_ptr<WorkflowSource> source;
    std::unique_ptr<WorkflowScheduler> scheduler;
    std::unique_ptr<HiWayAm> am;
    SubmissionOptions options;
    /// Provenance run ids of every AM attempt so far (dead attempts'
    /// runs feed the next attempt's recovery trace).
    std::vector<std::string> run_ids;
    /// When the RM declared the current attempt's AM dead.
    double failed_at = -1.0;
    /// Raw (replica-weighted) bytes charged to the footprint ledger while
    /// this submission holds a concurrency slot; 0 = not gated.
    int64_t admission_bytes = 0;
  };

  /// A crashed attempt's objects. Kept until service destruction: the
  /// engine may still hold events capturing the dead AM (all guarded by
  /// its crashed_ flag), so freeing it early would be use-after-free.
  struct RetiredAttempt {
    std::unique_ptr<WorkflowSource> source;
    std::unique_ptr<WorkflowScheduler> scheduler;
    std::unique_ptr<HiWayAm> am;
  };

  /// The submission's AM if it is running (not crashed or finished).
  Result<HiWayAm*> LiveAm(SubmissionId id) const;

  WorkflowService(Deployment* deployment, WorkflowServiceOptions options);

  /// Launches backlogged submissions while concurrency slots are free.
  /// Only queues marked dirty since the last pump are visited (a queue
  /// is marked when its backlog grows or a concurrency slot frees), so
  /// a pump is O(affected queues), not O(all queues).
  void Pump();
  void PumpQueue(const std::string& queue);
  /// Marks `queue` so the next Pump() visits it.
  void MarkPumpable(const std::string& queue) { pumpable_.insert(queue); }
  /// Launches the submission's next AM attempt. Attempt 1 runs the
  /// submitted source; later attempts rebuild it through source_factory
  /// and replay the prior attempts' provenance (completed tasks are
  /// memoised). Returns ResourceExhausted when no node can host the AM
  /// container (nothing changed; the caller waits or fails); any other
  /// failure finishes the submission and returns OK.
  Status LaunchAttempt(SubmissionId id);
  /// Failover timer: launches the replacement AM of a recovering
  /// submission, re-trying placement while another AM is running.
  void Failover(SubmissionId id);
  /// The only transition into kSucceeded, kFailed and kExpired. Releases
  /// the concurrency slot and footprint charge if the submission held
  /// them (exactly while kRunning or kRecovering), dissolves the dead
  /// attempts' dormant GC scopes, and schedules the deferred reap + pump.
  void Finish(SubmissionId id, SubmissionState state, Status status);
  void OnFinished(SubmissionId id, const WorkflowReport& report);
  void OnDeadline(SubmissionId id);
  /// RM app-failure listener: retires the dead attempt and either
  /// schedules a failover attempt or fails the submission terminally.
  void OnAppFailure(ApplicationId app, const std::string& reason);
  /// Destroys AMs of submissions queued for reaping (deferred, never
  /// from inside AM code). Targeted: only ids on the reap list are
  /// visited, not the whole submission table.
  void Reap();
  uint64_t SeedFor(SubmissionId id) const;
  /// Fills the submission's footprint estimate and admission charge
  /// (called once at Submit when footprint admission is active).
  void EstimateSubmissionFootprint(SubmissionId id);
  /// Charges / releases a started submission's footprint against the
  /// ledger, mirroring the running_ counter.
  void CommitFootprint(SubmissionId id, int sign);
  /// Ends the GC scopes of the submission's dead attempts (no-op without
  /// a GC or once they are gone).
  void DissolveDormantScopes(SubmissionId id);

  Deployment* deployment_;
  WorkflowServiceOptions options_;
  std::map<std::string, ServiceQueueOptions> queues_;
  std::map<std::string, std::deque<SubmissionId>> backlog_;
  /// Concurrency slots held per queue (kRunning + kRecovering).
  std::map<std::string, int> running_;
  std::map<std::string, ServiceQueueCounters> counters_;
  std::map<SubmissionId, SubmissionRecord> records_;
  std::map<SubmissionId, Submission> subs_;
  /// Live AM application -> submission (app-failure attribution).
  std::map<ApplicationId, SubmissionId> app_of_;
  /// Graveyard of crashed attempts (see RetiredAttempt).
  std::vector<RetiredAttempt> retired_;
  SubmissionId next_id_ = 1;
  bool retry_scheduled_ = false;
  bool reap_scheduled_ = false;
  /// Queues with new backlog or freed slots since the last Pump().
  std::set<std::string> pumpable_;
  /// Terminal submissions awaiting their deferred Reap().
  std::vector<SubmissionId> reap_list_;
  /// Non-terminal submissions. Idle() and the RunToCompletion predicate
  /// are O(1) checks of this counter instead of scans over records_ —
  /// at thousands of submissions the per-event predicate scan dominated
  /// the run (docs/scaling.md).
  int live_submissions_ = 0;
  /// Submissions in kRunning (a live AM). A failover whose AM container
  /// cannot be placed waits only while one of them may free capacity.
  int live_ams_ = 0;
  /// Fraction of the worker fleet that is spot capacity; < 0 = unset.
  double spot_fraction_ = -1.0;
  /// Footprint-admission ledger (docs/storage-model.md): budget = DFS
  /// capacity minus the baseline stored at service creation; committed =
  /// sum of running submissions' admission_bytes.
  int64_t footprint_budget_bytes_ = 0;
  int64_t committed_footprint_bytes_ = 0;
};

}  // namespace hiway

#endif  // HIWAY_SERVICE_WORKFLOW_SERVICE_H_
