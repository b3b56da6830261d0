// Lockstep tests for the provenance shard success index
// (ProvenanceShard::HasSuccessfulTaskEnd) against the full history scan
// it replaced (tests/oracles/provenance_oracle.h): random appends across
// shards, sealing, adoption of foreign and reopened ProvDb history,
// ProvenanceManager::Clear, and the result cache's lookup counters
// through an AM failover.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/cache/result_cache.h"
#include "src/common/random.h"
#include "src/common/strings.h"
#include "src/core/provenance.h"
#include "src/infra/karamel.h"
#include "src/provdb/provdb.h"
#include "src/service/workflow_service.h"
#include "src/sim/fault_injector.h"
#include "tests/oracles/provenance_oracle.h"

namespace hiway {
namespace {

const std::vector<std::string> kSignatures = {"align", "sort", "call",
                                              "merge", "annotate"};
constexpr TaskId kMaxTask = 8;  // task ids drawn from [kInvalidTask, 8)

ProvenanceEvent RandomEvent(Rng& rng) {
  ProvenanceEvent ev;
  uint64_t kind = rng.UniformInt(10);
  ev.type = kind < 7   ? ProvenanceEventType::kTaskEnd
            : kind < 8 ? ProvenanceEventType::kTaskStart
            : kind < 9 ? ProvenanceEventType::kTaskCacheHit
                       : ProvenanceEventType::kFileStageOut;
  ev.signature = kSignatures[rng.UniformInt(kSignatures.size())];
  ev.task_id = static_cast<TaskId>(rng.UniformInt(kMaxTask + 1)) - 1;
  ev.success = rng.NextDouble() < 0.7;
  ev.node = static_cast<int32_t>(rng.UniformInt(4));
  ev.duration = rng.Uniform(1.0, 100.0);
  ev.timestamp = rng.Uniform(0.0, 1000.0);
  return ev;
}

/// Index vs scan for one (shard, signature, task) question.
void ExpectAgrees(const ProvenanceManager& manager, const std::string& run,
                  const std::string& signature, TaskId task) {
  const ProvenanceShard* shard = manager.shard(run);
  bool index = shard != nullptr && shard->HasSuccessfulTaskEnd(signature, task);
  bool scan = ProvenanceOracle::HasSuccessfulTaskEnd(manager.ViewOf({run}),
                                                     signature, task);
  EXPECT_EQ(index, scan) << run << " " << signature << " task " << task;
}

/// Every signature (plus one never recorded) x every task id, wildcard
/// included, on every named run.
void ExpectAgreesEverywhere(const ProvenanceManager& manager,
                            const std::vector<std::string>& runs) {
  std::vector<std::string> signatures = kSignatures;
  signatures.push_back("never-recorded");
  for (const std::string& run : runs) {
    for (const std::string& sig : signatures) {
      for (TaskId task = kInvalidTask; task < kMaxTask + 1; ++task) {
        ExpectAgrees(manager, run, sig, task);
      }
    }
  }
}

TEST(ProvenanceIndexTest, LockstepWithScanAfterEveryAppend) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    ProvenanceManager manager;
    std::vector<std::string> runs;
    for (int i = 0; i < 4; ++i) {
      runs.push_back(manager.BeginWorkflow(StrFormat("wf%d", i), 0.0));
    }
    for (int step = 0; step < 400; ++step) {
      const std::string& run = runs[rng.UniformInt(runs.size())];
      ProvenanceShard* shard = manager.shard(run);
      if (rng.NextDouble() < 0.01) {
        // Terminal run or dead AM: later appends must not reach the index.
        shard->Seal();
      }
      bool sealed = shard->sealed();
      int64_t dropped = shard->dropped_after_seal();
      size_t size = shard->size();
      ProvenanceEvent ev = RandomEvent(rng);
      shard->Append(ev);
      if (sealed) {
        EXPECT_EQ(shard->dropped_after_seal(), dropped + 1);
        EXPECT_EQ(shard->size(), size);
      }
      // The appended question, its wildcard, a random task id and a
      // random signature, on the shard just written.
      ExpectAgrees(manager, run, ev.signature, ev.task_id);
      ExpectAgrees(manager, run, ev.signature, kInvalidTask);
      ExpectAgrees(manager, run, ev.signature,
                   static_cast<TaskId>(rng.UniformInt(kMaxTask)));
      ExpectAgrees(manager, run,
                   kSignatures[rng.UniformInt(kSignatures.size())],
                   ev.task_id);
      if (step % 100 == 99) ExpectAgreesEverywhere(manager, runs);
    }
    ExpectAgreesEverywhere(manager, runs);
  }
}

TEST(ProvenanceIndexTest, FailedTaskEndsAndOtherEventsNeverVouch) {
  ProvenanceManager manager;
  std::string run = manager.BeginWorkflow("wf", 0.0);
  ProvenanceShard* shard = manager.shard(run);
  TaskResult failed;
  failed.id = 3;
  failed.signature = "align";
  failed.status = Status::IoError("disk");
  shard->RecordTaskEnd(failed, "node-0");
  shard->RecordTaskCacheHit(4, "align", "other-run", 5.0, 1.0);
  TaskSpec spec;
  spec.id = 5;
  spec.signature = "align";
  shard->RecordTaskStart(spec, 0, "node-0", 2.0);
  EXPECT_FALSE(shard->HasSuccessfulTaskEnd("align", kInvalidTask));
  ExpectAgreesEverywhere(manager, {run});

  TaskResult ok = failed;
  ok.status = Status::OK();
  shard->RecordTaskEnd(ok, "node-0");
  EXPECT_TRUE(shard->HasSuccessfulTaskEnd("align", 3));
  EXPECT_TRUE(shard->HasSuccessfulTaskEnd("align", kInvalidTask));
  EXPECT_FALSE(shard->HasSuccessfulTaskEnd("align", 4));
  EXPECT_FALSE(shard->HasSuccessfulTaskEnd("sort", kInvalidTask));
  ExpectAgreesEverywhere(manager, {run});

  // A success recorded without a task id answers only the wildcard.
  ProvenanceEvent anonymous;
  anonymous.type = ProvenanceEventType::kTaskEnd;
  anonymous.signature = "sort";
  shard->Append(anonymous);
  EXPECT_TRUE(shard->HasSuccessfulTaskEnd("sort", kInvalidTask));
  EXPECT_FALSE(shard->HasSuccessfulTaskEnd("sort", 0));
  ExpectAgreesEverywhere(manager, {run});

  // Appends after the workflow end are dropped, index included.
  shard->RecordWorkflowEnd(10.0, true);
  ok.signature = "call";
  shard->RecordTaskEnd(ok, "node-0");
  EXPECT_EQ(shard->dropped_after_seal(), 1);
  EXPECT_FALSE(shard->HasSuccessfulTaskEnd("call", kInvalidTask));
  ExpectAgreesEverywhere(manager, {run});
}

TEST(ProvenanceIndexTest, AdoptedForeignHistoryIsIndexed) {
  // Unstamped (seq = -1) events from another installation, some naming
  // other runs, adopted as a sealed shard: the constructor indexes them.
  Rng rng(7);
  auto store = std::make_unique<InMemoryProvenanceStore>();
  for (int i = 0; i < 200; ++i) {
    ProvenanceEvent ev = RandomEvent(rng);
    ev.run_id = i % 3 == 0 ? "elsewhere-run-9" : "foreign-run-4";
    store->Append(ev);
  }
  ProvenanceManager manager;
  ASSERT_TRUE(manager.AdoptShard("foreign-run-4", std::move(store)).ok());
  ProvenanceShard* adopted = manager.shard("foreign-run-4");
  ASSERT_NE(adopted, nullptr);
  EXPECT_TRUE(adopted->sealed());
  for (const ProvenanceEvent& ev : adopted->Events()) EXPECT_EQ(ev.seq, -1);
  ExpectAgreesEverywhere(manager, {"foreign-run-4", "missing-run"});

  // A shard built without a sequence counter keeps its own appends
  // unstamped too.
  ProvenanceShard unstamped("loose", "wf", 0.0,
                            std::make_unique<InMemoryProvenanceStore>(),
                            /*global_seq=*/nullptr);
  ProvenanceView view;
  view.AddShard(&unstamped);
  for (int i = 0; i < 200; ++i) {
    ProvenanceEvent ev = RandomEvent(rng);
    unstamped.Append(ev);
    EXPECT_EQ(unstamped.HasSuccessfulTaskEnd(ev.signature, ev.task_id),
              ProvenanceOracle::HasSuccessfulTaskEnd(view, ev.signature,
                                                     ev.task_id));
    EXPECT_EQ(unstamped.HasSuccessfulTaskEnd(ev.signature, kInvalidTask),
              ProvenanceOracle::HasSuccessfulTaskEnd(view, ev.signature,
                                                     kInvalidTask));
  }
}

TEST(ProvenanceIndexTest, ReopenedProvDbShardsRebuildTheIndex) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      StrFormat("provenance-index-test-%d", getpid());
  std::filesystem::remove_all(dir);
  std::vector<std::string> runs;
  // Answers before the restart, for every question asked below.
  std::map<std::string, bool> before;
  std::vector<std::string> signatures = kSignatures;
  signatures.push_back("never-recorded");
  auto answers = [&](const ProvenanceManager& manager) {
    std::map<std::string, bool> out;
    for (const std::string& run : runs) {
      const ProvenanceShard* shard = manager.shard(run);
      for (const std::string& sig : signatures) {
        for (TaskId task = kInvalidTask; task < kMaxTask + 1; ++task) {
          out[StrFormat("%s/%s/%lld", run.c_str(), sig.c_str(),
                        static_cast<long long>(task))] =
              shard != nullptr && shard->HasSuccessfulTaskEnd(sig, task);
        }
      }
    }
    return out;
  };
  {
    auto sharded = OpenShardedProvenance(dir.string());
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    Rng rng(11);
    for (int i = 0; i < 3; ++i) {
      runs.push_back(sharded->manager->BeginWorkflow("wf", 0.0));
    }
    for (int step = 0; step < 150; ++step) {
      const std::string& run = runs[rng.UniformInt(runs.size())];
      sharded->manager->shard(run)->Append(RandomEvent(rng));
    }
    // One run ends cleanly, one AM dies mid-run; the third stays open.
    sharded->manager->shard(runs[0])->RecordWorkflowEnd(50.0, true);
    sharded->manager->shard(runs[1])->Seal();
    sharded->manager->shard(runs[1])->Append(RandomEvent(rng));  // dropped
    ExpectAgreesEverywhere(*sharded->manager, runs);
    before = answers(*sharded->manager);
  }
  auto reopened = OpenShardedProvenance(dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(reopened->manager->shard_count(), runs.size());
  ExpectAgreesEverywhere(*reopened->manager, runs);
  EXPECT_EQ(answers(*reopened->manager), before);
  std::filesystem::remove_all(dir);
}

TEST(ProvenanceIndexTest, ClearForgetsEveryRun) {
  Rng rng(3);
  ProvenanceManager manager;
  std::vector<std::string> runs;
  for (int i = 0; i < 3; ++i) {
    runs.push_back(manager.BeginWorkflow("wf", 0.0));
    for (int step = 0; step < 60; ++step) {
      manager.shard(runs.back())->Append(RandomEvent(rng));
    }
  }
  ExpectAgreesEverywhere(manager, runs);
  manager.Clear();
  for (const std::string& run : runs) {
    EXPECT_EQ(manager.shard(run), nullptr);
    EXPECT_FALSE(ProvenanceOracle::HasSuccessfulTaskEnd(
        manager.ViewOf({run}), "align", kInvalidTask));
  }
  // New runs after the wipe start with an empty index.
  std::string fresh = manager.BeginWorkflow("wf", 0.0);
  for (const std::string& sig : kSignatures) {
    EXPECT_FALSE(manager.shard(fresh)->HasSuccessfulTaskEnd(sig, kInvalidTask));
  }
  for (int step = 0; step < 60; ++step) {
    manager.shard(fresh)->Append(RandomEvent(rng));
  }
  runs.push_back(fresh);
  ExpectAgreesEverywhere(manager, runs);
}

// ---------------------------------------------------------------------
// Cache level: the result cache resolves through the index; its lookup
// counters must equal what a scan-backed resolution would produce.
// ---------------------------------------------------------------------

constexpr int64_t kMiB = 1LL << 20;

Result<std::unique_ptr<Deployment>> CacheDeployment() {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "4");
  karamel.SetAttribute("cluster/cores", "4");
  karamel.SetAttribute("hiway/cache_results", "on");
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, karamel.Converge());
  ToolProfile step;
  step.name = "step";
  step.cpu_seconds_per_mb = 0.5;
  step.fixed_cpu_seconds = 2.0;
  step.runtime_noise_sigma = 0.0;
  d->tools.Register(std::move(step));
  return d;
}

/// Six "map" tasks sharing one signature fan out from /ix/in; one
/// "reduce" joins them into /ix/out.
std::vector<TaskSpec> FanTasks() {
  std::vector<TaskSpec> tasks;
  TaskSpec reduce;
  reduce.id = 6;
  reduce.signature = "reduce";
  reduce.tool = "step";
  reduce.command = "step --reduce";
  for (int i = 0; i < 6; ++i) {
    TaskSpec map;
    map.id = i;
    map.signature = "map";
    map.tool = "step";
    map.command = StrFormat("step --map %d", i);
    map.input_files = {"/ix/in"};
    OutputSpec out;
    out.param = "out";
    out.path = StrFormat("/ix/m%d", i);
    out.size_bytes = 4 * kMiB;
    map.outputs.push_back(out);
    reduce.input_files.push_back(out.path);
    tasks.push_back(std::move(map));
  }
  OutputSpec out;
  out.param = "out";
  out.path = "/ix/out";
  out.size_bytes = kMiB;
  reduce.outputs.push_back(std::move(out));
  tasks.push_back(std::move(reduce));
  return tasks;
}

/// Looks every fan task up under every tenant, each lookup classified
/// first by the scan-backed oracle, and checks that the production
/// counters move exactly as that classification says. A resolved entry
/// whose outputs drifted (a twin run rewrote them) is evicted as stale
/// after resolution, by the same code either way. Returns the runs that
/// produced the hits.
std::set<std::string> LookupsMatchScanBackedResolution(ResultCache* cache) {
  std::set<std::string> producers;
  ResultCacheStats expected = cache->stats();
  for (const char* tenant : {"alice", "bob", "carol"}) {
    for (const TaskSpec& spec : FanTasks()) {
      auto cls = ProvenanceOracle::ClassifyLookup(*cache, spec, tenant);
      const int64_t stale = cache->stats().stale_evictions;
      auto hit = cache->Lookup(spec, tenant);
      const ResultCacheStats after = cache->stats();
      switch (cls) {
        case ProvenanceOracle::LookupClass::kResolved:
          if (after.stale_evictions > stale) {
            ++expected.stale_evictions;
            ++expected.misses;
          } else {
            if (hit.ok()) producers.insert(hit->run_id);
            ++expected.hits;
          }
          break;
        case ProvenanceOracle::LookupClass::kUnresolved:
          ++expected.unresolved;
          ++expected.misses;
          break;
        case ProvenanceOracle::LookupClass::kTenantDenied:
          ++expected.tenant_denied;
          ++expected.misses;
          break;
        case ProvenanceOracle::LookupClass::kMiss:
          ++expected.misses;
          break;
      }
      const std::string where = std::string(tenant) + "/" +
                                std::to_string(spec.id);
      EXPECT_EQ(hit.ok(), cls == ProvenanceOracle::LookupClass::kResolved &&
                              after.stale_evictions == stale)
          << where << ": " << hit.status().ToString();
      EXPECT_EQ(after.hits, expected.hits) << where;
      EXPECT_EQ(after.misses, expected.misses) << where;
      EXPECT_EQ(after.unresolved, expected.unresolved) << where;
      EXPECT_EQ(after.tenant_denied, expected.tenant_denied) << where;
      EXPECT_EQ(after.stale_evictions, expected.stale_evictions) << where;
    }
  }
  return producers;
}

/// Re-adopts `runs` from saved copies of their events, as a restart
/// that reopened their stores would; `lost` (if set) is one event a torn
/// log tail lost.
void Adopt(ProvenanceManager* manager,
           const std::map<std::string, std::vector<ProvenanceEvent>>& history,
           const std::set<std::string>& runs, int64_t lost = -1) {
  for (const std::string& run : runs) {
    auto store = std::make_unique<InMemoryProvenanceStore>();
    for (const ProvenanceEvent& ev : history.at(run)) {
      if (ev.seq != lost) store->Append(ev);
    }
    ASSERT_TRUE(manager->AdoptShard(run, std::move(store)).ok()) << run;
  }
}

TEST(ProvenanceIndexTest, CacheCountersMatchScanResolutionAcrossFailover) {
  auto d = CacheDeployment();
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ASSERT_NE((*d)->result_cache, nullptr);
  ResultCache* cache = (*d)->result_cache.get();
  ProvenanceManager* provenance = (*d)->provenance.get();
  ASSERT_TRUE((*d)->dfs->IngestFile("/ix/in", 8 * kMiB).ok());
  WorkflowServiceOptions options;
  for (const char* name : {"alice", "bob"}) {
    ServiceQueueOptions q;
    q.rm.name = name;
    options.queues.push_back(std::move(q));
  }
  auto service = WorkflowService::Create(d->get(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto submit = [&](const std::string& queue) {
    SubmissionOptions opts;
    opts.queue = queue;  // the tenant defaults to the queue
    opts.source_factory = [] {
      return Result<std::unique_ptr<WorkflowSource>>(
          std::make_unique<StaticWorkflowSource>(
              "fan", FanTasks(), std::vector<std::string>{"/ix/out"}));
    };
    auto source = opts.source_factory();
    EXPECT_TRUE(source.ok());
    return (*service)->Submit("fan", std::move(*source), opts);
  };

  // Cold run for alice. Its AM's node dies once some maps are done, so
  // alice's entries come from the dead (sealed) attempt and from the
  // replacement that recovered it.
  auto cold = submit("alice");
  ASSERT_TRUE(cold.ok());
  FaultInjector injector(&(*d)->engine);
  (*service)->InstallFaultHandlers(&injector);
  ASSERT_TRUE(injector
                  .ArmSpec(StrFormat("kill-am-node:at=12:sub=%lld",
                                     static_cast<long long>(*cold)))
                  .ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  const SubmissionRecord* cold_rec = (*service)->record(*cold);
  ASSERT_EQ(cold_rec->state, SubmissionState::kSucceeded)
      << cold_rec->report.status.ToString();
  ASSERT_EQ(cold_rec->am_attempts, 2);
  ASSERT_GT(cold_rec->completed_at_last_failure, 0);
  EXPECT_EQ(ProvenanceOracle::CountResolutionMismatches(*cache), 0);

  // Full history: alice resolves, bob and carol are denied.
  std::set<std::string> producers = LookupsMatchScanBackedResolution(cache);
  ASSERT_EQ(producers.size(), 2u);  // the dead attempt and its replacement
  const std::string survivor = cold_rec->report.run_id;
  ASSERT_EQ(producers.count(survivor), 1u);

  // Restarts that restore history piecemeal. Wipe every shard; adopt
  // all runs but the replacement's, then the replacement's too.
  std::map<std::string, std::vector<ProvenanceEvent>> history;
  std::set<std::string> all_runs;
  for (const std::string& run : provenance->RunIds()) {
    history[run] = provenance->shard(run)->Events();
    all_runs.insert(run);
  }
  provenance->Clear();
  EXPECT_TRUE(LookupsMatchScanBackedResolution(cache).empty());
  std::set<std::string> all_but_survivor = all_runs;
  all_but_survivor.erase(survivor);
  Adopt(provenance, history, all_but_survivor);
  EXPECT_EQ(LookupsMatchScanBackedResolution(cache).size(), 1u);
  Adopt(provenance, history, {survivor});
  EXPECT_EQ(LookupsMatchScanBackedResolution(cache), producers);
  EXPECT_EQ(ProvenanceOracle::CountResolutionMismatches(*cache), 0);

  // The dead attempt's log lost its last map task end: that one entry no
  // longer resolves, although the run ended other maps successfully.
  std::set<std::string> dead = producers;
  dead.erase(survivor);
  int64_t lost = -1;
  int map_ends = 0;
  for (const ProvenanceEvent& ev : history[*dead.begin()]) {
    if (ev.type == ProvenanceEventType::kTaskEnd && ev.success &&
        ev.signature == "map") {
      lost = ev.seq;
      ++map_ends;
    }
  }
  ASSERT_GE(map_ends, 2);
  const int64_t unresolved = cache->stats().unresolved;
  provenance->Clear();
  Adopt(provenance, history, all_runs, lost);
  EXPECT_EQ(LookupsMatchScanBackedResolution(cache), producers);
  EXPECT_EQ(cache->stats().unresolved, unresolved + 1);
  provenance->Clear();
  Adopt(provenance, history, all_runs);
  EXPECT_EQ(ProvenanceOracle::CountResolutionMismatches(*cache), 0);

  // The adopted history keeps serving new AMs: alice's warm run hits,
  // bob's twin is denied and recomputes (rewriting the outputs, so
  // alice's entries go stale).
  auto warm = submit("alice");
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  auto twin = submit("bob");
  ASSERT_TRUE(twin.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  EXPECT_EQ((*service)->record(*warm)->state, SubmissionState::kSucceeded);
  EXPECT_EQ((*service)->record(*twin)->state, SubmissionState::kSucceeded);
  EXPECT_EQ((*service)->record(*warm)->report.tasks_cached, 7);
  EXPECT_EQ((*service)->record(*twin)->report.tasks_cached, 0);
  EXPECT_EQ(ProvenanceOracle::CountResolutionMismatches(*cache), 0);
  EXPECT_EQ(LookupsMatchScanBackedResolution(cache),
            std::set<std::string>{(*service)->record(*twin)->report.run_id});
}

}  // namespace
}  // namespace hiway
