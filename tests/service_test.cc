// Tests for the multi-tenant WorkflowService gateway: admission control
// (backlog bounds, concurrency caps, deadlines), queue drain order,
// deterministic replay, parity with the single-workflow client path, AM
// failover, and the submission lifecycle's bookkeeping on every terminal
// path.

#include "src/service/workflow_service.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "src/common/strings.h"
#include "src/core/client.h"
#include "src/obs/tracer.h"
#include "src/sim/fault_injector.h"

namespace hiway {
namespace {

/// Snapshot of the DFS namespace: path -> size. Failover must reproduce
/// the clean run's outputs exactly.
std::map<std::string, int64_t> DfsSnapshot(Dfs* dfs) {
  std::map<std::string, int64_t> files;
  for (const std::string& path : dfs->ListFiles()) {
    auto info = dfs->Stat(path);
    if (info.ok()) files[path] = info->size_bytes;
  }
  return files;
}

/// Forwards to a wrapped source and counts live instances, so a test can
/// tell which sources the service still holds.
class CountedSource : public WorkflowSource {
 public:
  CountedSource(std::unique_ptr<WorkflowSource> inner, int* live)
      : inner_(std::move(inner)), live_(live) {
    ++*live_;
  }
  ~CountedSource() override { --*live_; }

  std::string name() const override { return inner_->name(); }
  bool IsStatic() const override { return inner_->IsStatic(); }
  Result<std::vector<TaskSpec>> Init() override { return inner_->Init(); }
  Result<std::vector<TaskSpec>> OnTaskCompleted(
      const TaskResult& result) override {
    return inner_->OnTaskCompleted(result);
  }
  bool IsDone() const override { return inner_->IsDone(); }
  std::vector<std::string> Targets() const override {
    return inner_->Targets();
  }

 private:
  std::unique_ptr<WorkflowSource> inner_;
  int* live_;
};

Result<std::unique_ptr<Deployment>> SmallDeployment(
    int workers = 4, const ChefAttributes& extra = {}) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", StrFormat("%d", workers));
  karamel.SetAttribute("cluster/cores", "4");
  karamel.SetAttribute("snv/chunks", "4");
  karamel.SetAttribute("snv/chunk_mb", "32");
  karamel.SetAttribute("montage/images", "6");
  karamel.SetAttribute("kmeans/points_mb", "8");
  for (const auto& [k, v] : extra) karamel.SetAttribute(k, v);
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(SnvWorkflowRecipe());
  karamel.AddRecipe(MontageWorkflowRecipe());
  karamel.AddRecipe(KmeansWorkflowRecipe());
  return karamel.Converge();
}

TEST(ServiceTest, RunsManyWorkflowsConcurrently) {
  auto d = SmallDeployment();
  ASSERT_TRUE(d.ok());
  WorkflowServiceOptions options;
  options.rm_scheduler = "fair";
  auto service = WorkflowService::Create(d->get(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  for (const char* name : {"snv-calling", "montage", "kmeans"}) {
    auto id = (*service)->SubmitStaged(name);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
  EXPECT_EQ((*service)->running_ams(), 3);  // all admitted immediately
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  for (const SubmissionRecord& rec : (*service)->Records()) {
    EXPECT_EQ(rec.state, SubmissionState::kSucceeded) << rec.name;
    EXPECT_GT(rec.report.tasks_completed, 0) << rec.name;
  }
  EXPECT_TRUE((*service)->Idle());
}

TEST(ServiceTest, ConcurrencyCapQueuesAndDrainsInSubmissionOrder) {
  auto d = SmallDeployment();
  ASSERT_TRUE(d.ok());
  WorkflowServiceOptions options;
  ServiceQueueOptions q;
  q.rm.name = "default";
  q.max_concurrent_ams = 1;
  options.queues = {q};
  auto service = WorkflowService::Create(d->get(), options);
  ASSERT_TRUE(service.ok());
  std::vector<SubmissionId> ids;
  for (const char* name : {"montage", "kmeans", "snv-calling"}) {
    auto id = (*service)->SubmitStaged(name);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  EXPECT_EQ((*service)->running_ams("default"), 1);
  EXPECT_EQ((*service)->backlog("default"), 2);
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  // One at a time, in submission order: starts are serialised.
  const SubmissionRecord* first = (*service)->record(ids[0]);
  const SubmissionRecord* second = (*service)->record(ids[1]);
  const SubmissionRecord* third = (*service)->record(ids[2]);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->state, SubmissionState::kSucceeded);
  EXPECT_EQ(second->state, SubmissionState::kSucceeded);
  EXPECT_EQ(third->state, SubmissionState::kSucceeded);
  EXPECT_DOUBLE_EQ(first->started_at, first->submitted_at);
  EXPECT_GE(second->started_at, first->finished_at);
  EXPECT_GE(third->started_at, second->finished_at);
}

TEST(ServiceTest, FullBacklogRejectsWithBackpressure) {
  auto d = SmallDeployment();
  ASSERT_TRUE(d.ok());
  WorkflowServiceOptions options;
  ServiceQueueOptions q;
  q.rm.name = "default";
  q.max_concurrent_ams = 1;
  q.max_backlog = 1;
  options.queues = {q};
  auto service = WorkflowService::Create(d->get(), options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->SubmitStaged("montage").ok());  // runs
  ASSERT_TRUE((*service)->SubmitStaged("kmeans").ok());   // backlogged
  auto rejected = (*service)->SubmitStaged("snv-calling");
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  const ServiceQueueCounters* counters =
      (*service)->queue_counters("default");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->rejected, 1);
  EXPECT_EQ(counters->submitted, 2);
  ASSERT_TRUE((*service)->RunToCompletion().ok());
}

TEST(ServiceTest, QueuedSubmissionExpiresAtItsDeadline) {
  auto d = SmallDeployment();
  ASSERT_TRUE(d.ok());
  WorkflowServiceOptions options;
  ServiceQueueOptions q;
  q.rm.name = "default";
  q.max_concurrent_ams = 1;
  options.queues = {q};
  auto service = WorkflowService::Create(d->get(), options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->SubmitStaged("snv-calling").ok());
  SubmissionOptions with_deadline;
  with_deadline.deadline_s = 10.0;  // far shorter than the running workflow
  auto doomed = (*service)->SubmitStaged("montage", with_deadline);
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  const SubmissionRecord* rec = (*service)->record(*doomed);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, SubmissionState::kExpired);
  EXPECT_TRUE(rec->report.status.IsFailedPrecondition());
  const ServiceQueueCounters* counters =
      (*service)->queue_counters("default");
  EXPECT_EQ(counters->expired, 1);
}

TEST(ServiceTest, LateFinisherIsFlaggedNotKilled) {
  auto d = SmallDeployment();
  ASSERT_TRUE(d.ok());
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());
  SubmissionOptions with_deadline;
  with_deadline.deadline_s = 1.0;  // starts instantly, finishes way later
  auto id = (*service)->SubmitStaged("montage", with_deadline);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  const SubmissionRecord* rec = (*service)->record(*id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, SubmissionState::kSucceeded);
  EXPECT_TRUE(rec->deadline_missed);
}

TEST(ServiceTest, MultiQueueCapsAreIndependent) {
  auto d = SmallDeployment();
  ASSERT_TRUE(d.ok());
  WorkflowServiceOptions options;
  ServiceQueueOptions fast;
  fast.rm.name = "fast";
  fast.max_concurrent_ams = 2;
  ServiceQueueOptions slow;
  slow.rm.name = "slow";
  slow.max_concurrent_ams = 1;
  options.queues = {fast, slow};
  auto service = WorkflowService::Create(d->get(), options);
  ASSERT_TRUE(service.ok());
  SubmissionOptions to_fast;
  to_fast.queue = "fast";
  SubmissionOptions to_slow;
  to_slow.queue = "slow";
  ASSERT_TRUE((*service)->SubmitStaged("montage", to_fast).ok());
  ASSERT_TRUE((*service)->SubmitStaged("kmeans", to_fast).ok());
  ASSERT_TRUE((*service)->SubmitStaged("montage", to_slow).ok());
  ASSERT_TRUE((*service)->SubmitStaged("kmeans", to_slow).ok());
  EXPECT_EQ((*service)->running_ams("fast"), 2);
  EXPECT_EQ((*service)->running_ams("slow"), 1);
  EXPECT_EQ((*service)->backlog("slow"), 1);
  auto unknown = (*service)->SubmitStaged("montage", SubmissionOptions{});
  EXPECT_TRUE(unknown.status().IsInvalidArgument());  // no "default" queue
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  for (const SubmissionRecord& rec : (*service)->Records()) {
    EXPECT_EQ(rec.state, SubmissionState::kSucceeded) << rec.name;
  }
}

TEST(ServiceTest, ReplayIsDeterministicAcrossFreshDeployments) {
  auto run = [](const std::string& scheduler) {
    std::vector<std::pair<double, int>> outcome;
    auto d = SmallDeployment();
    EXPECT_TRUE(d.ok());
    WorkflowServiceOptions options;
    options.rm_scheduler = scheduler;
    auto service =
        WorkflowService::Create(d->get(), options);
    EXPECT_TRUE(service.ok());
    for (const char* name : {"snv-calling", "montage", "kmeans"}) {
      EXPECT_TRUE((*service)->SubmitStaged(name).ok());
    }
    EXPECT_TRUE((*service)->RunToCompletion().ok());
    for (const SubmissionRecord& rec : (*service)->Records()) {
      outcome.emplace_back(rec.finished_at, rec.report.tasks_completed);
    }
    return outcome;
  };
  for (const char* scheduler : {"fifo", "capacity", "fair"}) {
    auto first = run(scheduler);
    auto second = run(scheduler);
    EXPECT_EQ(first, second) << scheduler;
  }
}

// A single submission through the service behaves exactly like the
// single-workflow client path (same seed derivation aside): same task
// count, successful outcome, and the FIFO scheduler leaves the RM in
// seed-equivalent shape.
TEST(ServiceTest, SingleSubmissionMatchesClientRun) {
  auto d_client = SmallDeployment();
  ASSERT_TRUE(d_client.ok());
  HiWayClient client(d_client->get());
  HiWayOptions hiway;
  hiway.seed = 1234;
  auto direct = client.Run("montage", "data-aware", hiway);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(direct->status.ok());

  auto d_service = SmallDeployment();
  ASSERT_TRUE(d_service.ok());
  auto service =
      WorkflowService::Create(d_service->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());
  auto id = (*service)->SubmitStaged("montage");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  const SubmissionRecord* rec = (*service)->record(*id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, SubmissionState::kSucceeded);
  EXPECT_EQ(rec->report.tasks_completed, direct->tasks_completed);
  EXPECT_EQ((*service)->deployment()->rm->policy(), RmPolicy::kFifo);
}

// -- AM failover ----------------------------------------------------------

// Satellite: kill the node hosting a submission's AM mid-run. The
// service must launch a replacement attempt that memoises completed
// tasks from the provenance trace, produce byte-identical outputs, and
// re-execute only the tasks that were not yet done.
TEST(ServiceFailoverTest, AmNodeKillRecoversWithMemoisation) {
  // Clean reference run: outputs + task count without any failure.
  auto d_clean = SmallDeployment(6);
  ASSERT_TRUE(d_clean.ok());
  auto clean = WorkflowService::Create(d_clean->get(),
                                       WorkflowServiceOptions{});
  ASSERT_TRUE(clean.ok());
  auto clean_id = (*clean)->SubmitStaged("snv-calling");
  ASSERT_TRUE(clean_id.ok());
  ASSERT_TRUE((*clean)->RunToCompletion().ok());
  const SubmissionRecord* clean_rec = (*clean)->record(*clean_id);
  ASSERT_EQ(clean_rec->state, SubmissionState::kSucceeded);
  auto clean_files = DfsSnapshot((*d_clean)->dfs.get());

  // Faulted run: the AM node dies mid-workflow.
  auto d = SmallDeployment(6);
  ASSERT_TRUE(d.ok());
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());
  auto id = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(id.ok());

  // Strike past the midpoint of the (measured) clean makespan, so the
  // dead attempt provably completed work worth memoising.
  double strike = 0.6 * clean_rec->finished_at;
  FaultInjector injector(&(*d)->engine);
  (*service)->InstallFaultHandlers(&injector);
  ASSERT_TRUE(injector.ArmSpec(StrFormat("kill-am-node:at=%.3f:sub=%lld",
                                         strike,
                                         static_cast<long long>(*id)))
                  .ok());

  ASSERT_TRUE((*service)->RunToCompletion().ok());
  EXPECT_EQ(injector.counters().node_kills, 1);

  const SubmissionRecord* rec = (*service)->record(*id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, SubmissionState::kSucceeded);
  EXPECT_EQ(rec->am_attempts, 2);
  EXPECT_EQ(rec->am_failures, 1);
  ASSERT_EQ(rec->recovery_latency_s.size(), 1u);
  EXPECT_GT(rec->recovery_latency_s[0], 0.0);
  EXPECT_EQ(rec->report.am_attempt, 2);

  // Same logical outcome as the clean run...
  EXPECT_EQ(rec->report.tasks_completed, clean_rec->report.tasks_completed);
  // ...with byte-identical outputs (every clean-run file exists with the
  // same size; the faulted namespace is a superset only through lost-node
  // replica bookkeeping, never through different task outputs).
  auto files = DfsSnapshot((*d)->dfs.get());
  for (const auto& [path, size] : clean_files) {
    auto it = files.find(path);
    ASSERT_NE(it, files.end()) << path;
    EXPECT_EQ(it->second, size) << path;
  }

  // The failure happened mid-run, so the dead attempt had completed some
  // tasks — and the replacement memoised rather than re-ran them.
  EXPECT_GT(rec->completed_at_last_failure, 0);
  EXPECT_GT(rec->report.tasks_memoised, 0);
  // Wasted work: already-completed tasks that re-executed anyway.
  int wasted = rec->completed_at_last_failure - rec->report.tasks_memoised;
  EXPECT_GE(wasted, 0);
  EXPECT_LT(wasted, rec->completed_at_last_failure)
      << "recovery re-executed everything; memoisation is not working";
}

// Satellite (sharded provenance): with two submissions of the SAME
// workflow running concurrently — identical task signatures, identical
// output paths — a killed AM must rebuild its memoised prefix from its
// own prior-attempt shards only. If the recovery trace leaked the twin's
// shard, the replacement would memoise tasks its own attempts never
// completed; scoping caps memoisation at the dead attempt's progress.
// Outputs stay byte-identical to an unsharded-equivalent clean baseline.
TEST(ServiceFailoverTest, RecoveryReadsOwnPriorAttemptShardsOnly) {
  // Clean baseline: the same two submissions, no faults.
  auto d_clean = SmallDeployment(6);
  ASSERT_TRUE(d_clean.ok());
  auto clean = WorkflowService::Create(d_clean->get(),
                                       WorkflowServiceOptions{});
  ASSERT_TRUE(clean.ok());
  auto clean_victim = (*clean)->SubmitStaged("snv-calling");
  auto clean_twin = (*clean)->SubmitStaged("snv-calling");
  ASSERT_TRUE(clean_victim.ok());
  ASSERT_TRUE(clean_twin.ok());
  ASSERT_TRUE((*clean)->RunToCompletion().ok());
  const SubmissionRecord* clean_rec = (*clean)->record(*clean_victim);
  ASSERT_EQ(clean_rec->state, SubmissionState::kSucceeded);
  auto clean_files = DfsSnapshot((*d_clean)->dfs.get());

  // Faulted run: kill the victim's AM mid-flight; its twin keeps going.
  auto d = SmallDeployment(6);
  ASSERT_TRUE(d.ok());
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());
  auto victim = (*service)->SubmitStaged("snv-calling");
  auto twin = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(twin.ok());

  FaultInjector injector(&(*d)->engine);
  (*service)->InstallFaultHandlers(&injector);
  double strike = 0.5 * clean_rec->finished_at;
  ASSERT_TRUE(injector.ArmSpec(StrFormat("kill-am-node:at=%.3f:sub=%lld",
                                         strike,
                                         static_cast<long long>(*victim)))
                  .ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());

  const SubmissionRecord* rec = (*service)->record(*victim);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, SubmissionState::kSucceeded);
  EXPECT_GE(rec->am_attempts, 2);
  EXPECT_EQ(rec->report.tasks_completed, clean_rec->report.tasks_completed);

  // The scoping property: memoisation is bounded by what the victim's
  // OWN dead attempts completed. The twin ran the same signatures and
  // its outputs exist in DFS, so a leaked merged trace would let the
  // replacement memoise beyond this bound.
  EXPECT_LE(rec->report.tasks_memoised, rec->completed_at_last_failure);

  // Every AM attempt got its own shard; the crashed attempts' shards are
  // sealed, and the victim's recovery view contains only its own runs.
  ProvenanceManager* prov = (*d)->provenance.get();
  EXPECT_GE(prov->shard_count(), 3u);
  for (const std::string& run : prov->RunIds()) {
    const ProvenanceShard* shard = prov->shard(run);
    ASSERT_NE(shard, nullptr);
    EXPECT_TRUE(shard->sealed()) << run;  // every run ended or crashed
  }
  for (const ProvenanceEvent& ev :
       prov->ViewOf({rec->report.run_id}).Events()) {
    EXPECT_EQ(ev.run_id, rec->report.run_id);
  }

  // Byte-identical outputs against the clean baseline.
  auto files = DfsSnapshot((*d)->dfs.get());
  for (const auto& [path, size] : clean_files) {
    auto it = files.find(path);
    ASSERT_NE(it, files.end()) << path;
    EXPECT_EQ(it->second, size) << path;
  }
}

// An AM process crash (node stays healthy) surfaces via the RM's
// heartbeat timeout and recovers the same way — including for an
// iterative Cuneiform workflow, whose recovery replays recorded stdout.
TEST(ServiceFailoverTest, HeartbeatTimeoutRecoversACrashedAm) {
  auto d = SmallDeployment(6);
  ASSERT_TRUE(d.ok());
  (*d)->tracer.set_enabled(true);
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());
  auto id = (*service)->SubmitStaged("kmeans");
  ASSERT_TRUE(id.ok());

  (*d)->engine.ScheduleAt(15.0, [&] {
    ASSERT_TRUE((*service)->InjectAmCrash(*id).ok());
  });
  ASSERT_TRUE((*service)->RunToCompletion().ok());

  // The RM fails the AM exactly 10 s after its last heartbeat before the
  // crash. The AM beat at registration and then every 1 s, each beat
  // scheduled from the one before; a beat due at the crash instant was
  // queued after the crash and never sent.
  std::vector<TraceEvent> events = (*d)->tracer.Drain();
  const TraceEvent* failure = nullptr;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "am_failure") failure = &e;
  }
  ASSERT_NE(failure, nullptr);
  double registered_at = -1.0;
  for (const TraceEvent& e : events) {
    if (e.phase == SpanPhase::kBegin && std::string(e.name) == "workflow" &&
        e.app == failure->app) {
      registered_at = e.timestamp;
    }
  }
  ASSERT_GE(registered_at, 0.0);
  double last_beat = registered_at;
  while (last_beat + 1.0 < 15.0) last_beat += 1.0;
  EXPECT_EQ(failure->timestamp, last_beat + 10.0);

  const SubmissionRecord* rec = (*service)->record(*id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, SubmissionState::kSucceeded) << rec->report.status.ToString();
  EXPECT_EQ(rec->am_attempts, 2);
  EXPECT_EQ(rec->am_failures, 1);
  // Detection is the liveness timeout, not instantaneous: the recovery
  // latency includes it.
  ASSERT_EQ(rec->recovery_latency_s.size(), 1u);
  EXPECT_GE((*d)->rm->counters().app_failures, 1);
}

// Acceptance: failover is deterministic under a fixed seed — two
// identical faulted runs produce identical outcomes and identical
// provenance shapes.
TEST(ServiceFailoverTest, FailoverIsDeterministicUnderFixedSeed) {
  auto run = [] {
    std::vector<std::tuple<double, int, int, int>> outcome;
    size_t provenance_events = 0;
    auto d = SmallDeployment(6);
    EXPECT_TRUE(d.ok());
    auto service =
        WorkflowService::Create(d->get(), WorkflowServiceOptions{});
    EXPECT_TRUE(service.ok());
    auto id = (*service)->SubmitStaged("montage");
    EXPECT_TRUE(id.ok());
    FaultInjector injector(&(*d)->engine, /*seed=*/99);
    (*service)->InstallFaultHandlers(&injector);
    EXPECT_TRUE(injector.ArmSpec("kill-am-node@12").ok());
    EXPECT_TRUE((*service)->RunToCompletion().ok());
    for (const SubmissionRecord& rec : (*service)->Records()) {
      outcome.emplace_back(rec.finished_at, rec.report.tasks_completed,
                           rec.report.tasks_memoised, rec.am_attempts);
    }
    provenance_events = (*d)->provenance->size();
    return std::make_pair(outcome, provenance_events);
  };
  auto first = run();
  auto second = run();
  EXPECT_EQ(first, second);
}

// When the retry budget is exhausted (or the submission is not
// recoverable), an AM failure is terminal.
TEST(ServiceFailoverTest, RetryExhaustionFailsTheSubmission) {
  auto d = SmallDeployment(6);
  ASSERT_TRUE(d.ok());
  WorkflowServiceOptions options;
  options.am_retry.max_attempts = 1;  // no failover budget
  auto service = WorkflowService::Create(d->get(), options);
  ASSERT_TRUE(service.ok());
  auto id = (*service)->SubmitStaged("montage");
  ASSERT_TRUE(id.ok());
  (*d)->engine.ScheduleAt(10.0, [&] {
    ASSERT_TRUE((*service)->InjectAmCrash(*id).ok());
  });
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  const SubmissionRecord* rec = (*service)->record(*id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, SubmissionState::kFailed);
  EXPECT_EQ(rec->am_failures, 1);
  EXPECT_FALSE(rec->report.status.ok());
  const ServiceQueueCounters* counters =
      (*service)->queue_counters("default");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->failed, 1);
}

// Acceptance: an 8-workflow burst with injected AM-node kills completes
// every submission.
TEST(ServiceFailoverTest, BurstSurvivesRepeatedAmNodeKills) {
  auto d = SmallDeployment(10);
  ASSERT_TRUE(d.ok());
  WorkflowServiceOptions options;
  options.rm_scheduler = "fair";
  ServiceQueueOptions q;
  q.rm.name = "default";
  q.max_concurrent_ams = 8;
  options.queues = {q};
  auto service = WorkflowService::Create(d->get(), options);
  ASSERT_TRUE(service.ok());
  const char* names[] = {"snv-calling", "montage", "kmeans", "montage",
                         "snv-calling", "kmeans", "montage", "kmeans"};
  std::vector<SubmissionId> ids;
  for (const char* name : names) {
    auto id = (*service)->SubmitStaged(name);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  FaultInjector injector(&(*d)->engine, /*seed=*/5);
  (*service)->InstallFaultHandlers(&injector);
  ASSERT_TRUE(injector.ArmSpec("kill-am-node@15,kill-am-node@40").ok());

  ASSERT_TRUE((*service)->RunToCompletion().ok());
  EXPECT_EQ(injector.counters().node_kills, 2);
  int recovered = 0;
  for (SubmissionId id : ids) {
    const SubmissionRecord* rec = (*service)->record(id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->state, SubmissionState::kSucceeded)
        << rec->name << ": " << rec->report.status.ToString();
    recovered += rec->am_failures;
  }
  EXPECT_GE(recovered, 2);  // each node kill took down at least one AM
}

// A node fault aimed beyond the fleet is skipped, not rejected at parse
// time (elastic joins grow the fleet later), and the injector counts
// only faults that took effect: a kill of a dead node, a revocation of a
// dead node and a crash of an unknown submission hit nothing.
TEST(ServiceFailoverTest, FaultsThatHitNothingAreSkippedAndNotCounted) {
  auto d = SmallDeployment(4);
  ASSERT_TRUE(d.ok());
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());
  auto id = (*service)->SubmitStaged("montage");
  ASSERT_TRUE(id.ok());
  FaultInjector injector(&(*d)->engine, /*seed=*/7);
  (*service)->InstallFaultHandlers(&injector);
  ASSERT_TRUE(injector
                  .ArmSpec("kill-node@1:node=999, spot-revoke@1:node=999, "
                           "am-crash@1:sub=7, kill-node@2:node=3, "
                           "kill-node@3:node=3, spot-revoke@4:node=3")
                  .ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  EXPECT_EQ(injector.counters().node_kills, 1);
  EXPECT_EQ(injector.counters().am_crashes, 0);
  EXPECT_EQ(injector.counters().spot_revocations, 0);
  EXPECT_FALSE((*d)->rm->IsNodeAlive(3));
  const SubmissionRecord* rec = (*service)->record(*id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, SubmissionState::kSucceeded)
      << rec->report.status.ToString();
}

TEST(ServiceTest, PreemptionRestoresGuaranteeAndChargesNoAttempts) {
  // A batch burst saturates the cluster; a production queue with a 0.7
  // guarantee arrives mid-flight. With preemption on, the RM must kill
  // batch task containers until prod reaches its guarantee within the
  // grace window — and the preempted batch tasks must NOT consume their
  // retry budget (max_attempts = 1 makes any charged attempt fatal).
  auto d = SmallDeployment(
      /*workers=*/4, {{"yarn/preemption", "true"},
                      {"yarn/preemption_grace_s", "2"},
                      {"yarn/max_preempt_per_round", "8"},
                      {"snv/chunks", "8"}});
  ASSERT_TRUE(d.ok());
  WorkflowServiceOptions options;
  options.rm_scheduler = "capacity";
  ServiceQueueOptions batch;
  batch.rm = RmQueueConfig{"batch", 0.2, 0.85, 1.0};
  ServiceQueueOptions prod;
  prod.rm = RmQueueConfig{"prod", 0.7, 1.0, 1.0};
  options.queues = {batch, prod};
  auto service = WorkflowService::Create(d->get(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  SubmissionOptions batch_opts;
  batch_opts.queue = "batch";
  batch_opts.hiway.container_priority = 0;
  batch_opts.hiway.task_retry.max_attempts = 1;  // preemption-exempt proof
  std::vector<SubmissionId> batch_ids;
  for (int i = 0; i < 2; ++i) {
    auto id = (*service)->SubmitStaged("snv-calling", batch_opts);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    batch_ids.push_back(*id);
  }
  SubmissionId prod_id = -1;
  (*d)->engine.ScheduleAt(25.0, [&] {
    SubmissionOptions prod_opts;
    prod_opts.queue = "prod";
    prod_opts.hiway.container_priority = 10;
    auto id = (*service)->SubmitStaged("snv-calling", prod_opts);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    prod_id = *id;
  });
  ASSERT_TRUE((*service)->RunToCompletion().ok());

  int preempted_tasks = 0;
  for (const SubmissionRecord& rec : (*service)->Records()) {
    EXPECT_EQ(rec.state, SubmissionState::kSucceeded)
        << rec.name << ": " << rec.report.status.ToString();
    // No attempt was ever charged for a preempted container (and no node
    // blacklisted): with max_attempts = 1 a single charge would have
    // failed the batch workflow outright.
    EXPECT_EQ(rec.report.failed_attempts, 0) << rec.name;
    preempted_tasks += rec.report.tasks_preempted;
  }
  ASSERT_NE(prod_id, -1);  // batch really was still running at t=25
  const ResourceManager& rm = *(*d)->rm;
  EXPECT_GT(rm.counters().preempted_containers, 0);
  EXPECT_EQ(preempted_tasks, rm.counters().preempted_containers);

  // Prod's starvation episode closed within the grace window (plus the
  // allocation-pass cadence that delivers the reclaimed capacity).
  const TenantStats* prod_stats = rm.queue_stats("prod");
  ASSERT_NE(prod_stats, nullptr);
  ASSERT_FALSE(prod_stats->restoration_latency_s.empty());
  double grace = rm.options().preemption_grace_s;
  EXPECT_LE(prod_stats->restoration_latency_s[0], grace + 3.0);
  // Kills were bounded by what restoration needed: batch kept its own
  // guarantee and the run wasted only a small fraction of its work.
  const RmCounters& counters = rm.counters();
  ASSERT_GT(counters.container_work_s, 0.0);
  EXPECT_LT(counters.preempted_work_s / counters.container_work_s, 0.3);
}

// One run through every terminal path: success, deadline expiry, a bad
// policy and a footprint that can never fit (both fail before start), an
// AM no node can host, a failover that recovers, a failover that exhausts
// am_retry, and a backlog reject. Every queue's books balance, no slot or
// footprint charge leaks, and every terminal submission released its
// source — only crashed attempts' sources survive, in the graveyard that
// outlives their engine events.
TEST(ServiceLifecycleTest, EveryTerminalPathBalancesTheBooks) {
  auto d = SmallDeployment(6, {{"dfs/capacity_mb", "1000000"}});
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  Deployment* dep = d->get();
  WorkflowServiceOptions options;
  options.footprint_admission = true;
  options.am_retry.max_attempts = 2;
  ServiceQueueOptions serial;
  serial.rm.name = "serial";
  serial.max_concurrent_ams = 1;
  serial.max_backlog = 1;
  ServiceQueueOptions wide;
  wide.rm.name = "wide";
  options.queues = {serial, wide};
  auto created = WorkflowService::Create(dep, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  WorkflowService* service = created->get();
  ASSERT_GT(service->footprint_budget_bytes(), 0);

  int live_sources = 0;
  auto make_source = [dep, &live_sources](const std::string& staged)
      -> Result<std::unique_ptr<WorkflowSource>> {
    HIWAY_ASSIGN_OR_RETURN(
        std::unique_ptr<WorkflowSource> inner,
        HiWayClient(dep).MakeSource(dep->workflows.at(staged)));
    return std::unique_ptr<WorkflowSource>(
        new CountedSource(std::move(inner), &live_sources));
  };
  auto submit = [&](const std::string& staged, const std::string& queue,
                    SubmissionOptions opts = {}) {
    opts.queue = queue;
    if (opts.footprint_bytes < 0) opts.footprint_bytes = 1 << 20;
    opts.source_factory = [make_source, staged] {
      return make_source(staged);
    };
    auto source = make_source(staged);
    EXPECT_TRUE(source.ok()) << source.status().ToString();
    return service->Submit(staged, std::move(*source), std::move(opts));
  };

  auto ok = submit("snv-calling", "serial");
  SubmissionOptions with_deadline;
  with_deadline.deadline_s = 10.0;
  auto expired = submit("montage", "serial", with_deadline);
  auto rejected = submit("kmeans", "serial");
  SubmissionOptions bad_policy;
  bad_policy.policy = "lottery";
  auto unknown_policy = submit("montage", "wide", bad_policy);
  SubmissionOptions huge_footprint;
  huge_footprint.footprint_bytes = service->footprint_budget_bytes() + 1;
  auto never_fits = submit("montage", "wide", huge_footprint);
  auto recovers = submit("montage", "wide");
  auto exhausts = submit("kmeans", "wide");
  SubmissionOptions huge_am;
  huge_am.hiway.am_vcores = 64;
  auto unplaceable = submit("montage", "wide", huge_am);
  for (const auto* id : {&ok, &expired, &unknown_policy, &never_fits,
                         &recovers, &exhausts, &unplaceable}) {
    ASSERT_TRUE(id->ok()) << id->status().ToString();
  }
  ASSERT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();

  // From t=10 on, crash `recovers` once and every attempt of `exhausts`.
  bool crashed_once = false;
  std::function<void()> crash_tick = [&] {
    if (!crashed_once) crashed_once = service->InjectAmCrash(*recovers).ok();
    (void)service->InjectAmCrash(*exhausts);
    if (!service->Idle()) dep->engine.ScheduleAfter(2.0, crash_tick);
  };
  dep->engine.ScheduleAt(10.0, crash_tick);

  ASSERT_TRUE(service->RunToCompletion().ok());
  // Terminal submissions are reaped by a deferred same-time event.
  dep->engine.RunUntil(dep->engine.Now());

  auto state = [&](const Result<SubmissionId>& id) {
    return service->record(*id)->state;
  };
  EXPECT_EQ(state(ok), SubmissionState::kSucceeded);
  EXPECT_EQ(state(expired), SubmissionState::kExpired);
  EXPECT_EQ(state(unknown_policy), SubmissionState::kFailed);
  EXPECT_EQ(state(never_fits), SubmissionState::kFailed);
  EXPECT_EQ(state(recovers), SubmissionState::kSucceeded);
  EXPECT_EQ(state(exhausts), SubmissionState::kFailed);
  EXPECT_EQ(state(unplaceable), SubmissionState::kFailed);
  EXPECT_EQ(service->record(*recovers)->am_attempts, 2);
  EXPECT_EQ(service->record(*recovers)->am_failures, 1);
  EXPECT_EQ(service->record(*exhausts)->am_failures, 2);
  EXPECT_TRUE(service->record(*unplaceable)->report.status
                  .IsResourceExhausted());

  for (const std::string& queue : service->QueueNames()) {
    const ServiceQueueCounters* c = service->queue_counters(queue);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->submitted, c->succeeded + c->failed + c->expired) << queue;
  }
  EXPECT_EQ(service->queue_counters("serial")->rejected, 1);
  EXPECT_EQ(service->queue_counters("wide")->submitted, 5);
  EXPECT_TRUE(service->Idle());
  EXPECT_EQ(service->running_ams(), 0);
  EXPECT_EQ(service->committed_footprint_bytes(), 0);

  int crashed_attempts = 0;
  for (const SubmissionRecord& rec : service->Records()) {
    EXPECT_TRUE(rec.Terminal()) << rec.name;
    crashed_attempts += rec.am_failures;
  }
  EXPECT_EQ(crashed_attempts, 3);
  EXPECT_EQ(live_sources, crashed_attempts);
}

TEST(ServiceTest, CreateRejectsBadConfiguration) {
  auto d = SmallDeployment();
  ASSERT_TRUE(d.ok());
  WorkflowServiceOptions bad_scheduler;
  bad_scheduler.rm_scheduler = "lottery";
  EXPECT_TRUE(WorkflowService::Create(d->get(), bad_scheduler)
                  .status()
                  .IsInvalidArgument());
  WorkflowServiceOptions dup_queues;
  ServiceQueueOptions q;
  q.rm.name = "twin";
  dup_queues.queues = {q, q};
  EXPECT_TRUE(WorkflowService::Create(d->get(), dup_queues)
                  .status()
                  .IsInvalidArgument());
  auto unknown = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(unknown.ok());
  EXPECT_TRUE((*unknown)
                  ->SubmitStaged("no-such-workflow")
                  .status()
                  .IsNotFound());

  // Submissions that fail before their AM starts still report their
  // workflow name: an unknown scheduling policy, an AM container no
  // node can host.
  SubmissionOptions bad_policy;
  bad_policy.policy = "lottery";
  SubmissionOptions huge_am;
  huge_am.hiway.am_vcores = 64;
  for (const SubmissionOptions& options : {bad_policy, huge_am}) {
    auto id = (*unknown)->SubmitStaged("montage", options);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    const SubmissionRecord* rec = (*unknown)->record(*id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->state, SubmissionState::kFailed);
    EXPECT_FALSE(rec->report.status.ok());
    EXPECT_EQ(rec->report.workflow_name, "montage");
  }
}

}  // namespace
}  // namespace hiway
