// System-level property tests: conservation laws of the fair-share model,
// determinism of the simulator, and driver robustness under churn.

#include <gtest/gtest.h>

#include <numeric>

#include "src/common/random.h"
#include "src/common/strings.h"
#include "src/core/client.h"
#include "src/lang/trace_source.h"

namespace hiway {
namespace {

// ---- Flow conservation ----------------------------------------------------

// Property: for any random set of finite flows, each flow completes after
// delivering exactly its demand — i.e. integral(rate dt) == demand — and
// the resource usage integral equals the sum of demands crossing it.
class FlowConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(FlowConservationTest, DeliveredWorkEqualsDemand) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  SimEngine engine;
  FlowNetwork net(&engine);
  const int kResources = 6;
  std::vector<ResourceId> resources;
  for (int i = 0; i < kResources; ++i) {
    resources.push_back(net.AddResource(StrFormat("r%d", i),
                                        20.0 + 80.0 * rng.NextDouble()));
  }
  struct Probe {
    double demand;
    double started = -1;
    double finished = -1;
    std::vector<ResourceId> path;
  };
  auto probes = std::make_shared<std::vector<Probe>>();
  const int kFlows = 30;
  std::vector<double> per_resource_demand(kResources, 0.0);
  for (int i = 0; i < kFlows; ++i) {
    Probe probe;
    probe.demand = 5.0 + 100.0 * rng.NextDouble();
    size_t a = rng.UniformInt(kResources);
    size_t b = rng.UniformInt(kResources);
    probe.path = {resources[a]};
    if (b != a) probe.path.push_back(resources[b]);
    for (ResourceId r : probe.path) {
      per_resource_demand[static_cast<size_t>(r)] += probe.demand;
    }
    probes->push_back(probe);
  }
  for (int i = 0; i < kFlows; ++i) {
    double start = 10.0 * rng.NextDouble();
    engine.ScheduleAt(start, [probes, i, &net, &engine] {
      (*probes)[static_cast<size_t>(i)].started = engine.Now();
      FlowSpec spec;
      spec.resources = (*probes)[static_cast<size_t>(i)].path;
      spec.demand = (*probes)[static_cast<size_t>(i)].demand;
      spec.on_complete = [probes, i, &engine] {
        (*probes)[static_cast<size_t>(i)].finished = engine.Now();
      };
      net.StartFlow(std::move(spec));
    });
  }
  engine.Run();
  for (const Probe& probe : *probes) {
    ASSERT_GE(probe.finished, probe.started);
    // Lower bound: demand / total capacity of its slowest resource.
    double min_cap = 1e18;
    for (ResourceId r : probe.path) {
      min_cap = std::min(min_cap, net.Capacity(r));
    }
    EXPECT_GE(probe.finished - probe.started + 1e-6,
              probe.demand / min_cap);
  }
  // Per-resource conservation: mean_rate * window == total demand routed
  // through it (all flows completed, nothing active).
  double window = engine.Now();
  for (int i = 0; i < kResources; ++i) {
    ResourceStats stats = net.Stats(resources[static_cast<size_t>(i)]);
    EXPECT_NEAR(stats.mean_rate * window,
                per_resource_demand[static_cast<size_t>(i)],
                per_resource_demand[static_cast<size_t>(i)] * 1e-6 + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowConservationTest,
                         ::testing::Range(1, 11));

// Weighted fairness: two infinite flows with weights w and 1 on one
// resource hold rates in ratio w while both are uncapped.
TEST(FlowWeightTest, RatesProportionalToWeights) {
  for (double w : {2.0, 3.0, 8.0}) {
    SimEngine engine;
    FlowNetwork net(&engine);
    ResourceId r = net.AddResource("r", 90.0);
    FlowSpec heavy;
    heavy.resources = {r};
    heavy.demand = kInfiniteDemand;
    heavy.weight = w;
    FlowId heavy_id = net.StartFlow(std::move(heavy));
    FlowSpec light;
    light.resources = {r};
    light.demand = kInfiniteDemand;
    FlowId light_id = net.StartFlow(std::move(light));
    engine.RunUntil(1.0);
    EXPECT_NEAR(net.CurrentRate(heavy_id) / net.CurrentRate(light_id), w,
                1e-9);
    net.CancelFlow(heavy_id);
    net.CancelFlow(light_id);
  }
}

// ---- Determinism ----------------------------------------------------------

double RunSnvMakespan(uint64_t seed) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "6");
  karamel.SetAttribute("cluster/cores", "4");
  karamel.SetAttribute("snv/chunks", "12");
  karamel.SetAttribute("snv/chunk_mb", "64");
  karamel.SetAttribute("seed", StrFormat("%llu",
                                         (unsigned long long)seed));
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(SnvWorkflowRecipe());
  auto d = karamel.Converge();
  EXPECT_TRUE(d.ok());
  HiWayClient client(d->get());
  HiWayOptions options;
  options.seed = seed;
  auto report = client.Run("snv-calling", "data-aware", options);
  EXPECT_TRUE(report.ok() && report->status.ok());
  return report->Makespan();
}

TEST(DeterminismTest, IdenticalSeedsIdenticalMakespans) {
  double a = RunSnvMakespan(1234);
  double b = RunSnvMakespan(1234);
  EXPECT_DOUBLE_EQ(a, b);  // bit-identical, not just close
}

TEST(DeterminismTest, DifferentSeedsPerturbOnlyNoise) {
  double a = RunSnvMakespan(1);
  double b = RunSnvMakespan(2);
  EXPECT_NE(a, b);                 // placement/noise differ
  EXPECT_NEAR(a / b, 1.0, 0.25);   // but not wildly
}

// ---- Sharded provenance: merge-on-read equivalence ------------------------

// Property: for random event sequences partitioned into random shards,
//   (a) the merged view reproduces the global append order exactly,
//   (b) SerializeTrace(merged view) round-trips through ParseTrace,
//   (c) every LatestRuntime / RuntimeObservations answer matches a
//       brute-force scan of the unsharded reference sequence.
class ShardMergeProperty : public ::testing::TestWithParam<int> {};

TEST_P(ShardMergeProperty, MergedViewMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729);
  ProvenanceManager manager;

  const int kShardCount = 2 + static_cast<int>(rng.UniformInt(6));
  const int kSignatures = 1 + static_cast<int>(rng.UniformInt(4));
  const int kNodes = 1 + static_cast<int>(rng.UniformInt(4));

  // The unsharded reference: every event in global append order, exactly
  // as a single shared store would have recorded it.
  std::vector<ProvenanceEvent> reference;
  std::vector<std::string> runs;
  auto mirror_tail = [&](const std::string& run) {
    reference.push_back(manager.shard(run)->Events().back());
  };
  for (int i = 0; i < kShardCount; ++i) {
    runs.push_back(
        manager.BeginWorkflow(StrFormat("wf%d", i), rng.Uniform(0, 10)));
    mirror_tail(runs.back());
  }

  const int kEvents = 40 + static_cast<int>(rng.UniformInt(80));
  double now = 10.0;
  for (int i = 0; i < kEvents; ++i) {
    const std::string& run = runs[rng.UniformInt(runs.size())];
    now += rng.Uniform(0.0, 2.0);
    TaskResult result;
    result.id = i + 1;
    result.signature =
        StrFormat("sig%d", static_cast<int>(rng.UniformInt(kSignatures)));
    result.node = static_cast<int32_t>(rng.UniformInt(kNodes));
    result.started_at = now - rng.Uniform(0.5, 5.0);
    result.finished_at = now;
    result.status = rng.NextDouble() < 0.8 ? Status::OK()
                                           : Status::RuntimeError("fail");
    manager.shard(run)->RecordTaskEnd(result,
                                      StrFormat("node-%03d", result.node));
    mirror_tail(run);
  }
  // Some runs end (sealing their shards), some stay open — both kinds
  // must merge.
  for (size_t i = 0; i < runs.size(); i += 2) {
    manager.shard(runs[i])->RecordWorkflowEnd(now + 1.0, true);
    mirror_tail(runs[i]);
  }

  // (a) merged order == reference order, byte for byte.
  auto merged = manager.View().Events();
  ASSERT_EQ(merged.size(), reference.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].ToJson().Dump(), reference[i].ToJson().Dump())
        << "event " << i;
  }

  // (b) JSON-lines round-trip of the merged view.
  auto reparsed = ParseTrace(manager.View().ExportTrace());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->size(), merged.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ((*reparsed)[i].ToJson().Dump(), merged[i].ToJson().Dump());
  }

  // (c) statistics queries vs brute-force scans of the reference.
  for (int s = 0; s < kSignatures; ++s) {
    std::string sig = StrFormat("sig%d", s);
    std::vector<std::pair<int32_t, double>> brute_obs;
    for (const ProvenanceEvent& ev : reference) {
      if (ev.type == ProvenanceEventType::kTaskEnd && ev.success &&
          ev.signature == sig) {
        brute_obs.emplace_back(ev.node, ev.duration);
      }
    }
    EXPECT_EQ(manager.View().RuntimeObservations(sig), brute_obs);
    for (int n = 0; n < kNodes; ++n) {
      double brute_latest = -1.0;
      for (const ProvenanceEvent& ev : reference) {
        if (ev.type == ProvenanceEventType::kTaskEnd && ev.success &&
            ev.signature == sig && ev.node == n) {
          brute_latest = ev.duration;
        }
      }
      auto latest = manager.View().LatestRuntime(sig, n);
      if (brute_latest < 0) {
        EXPECT_TRUE(latest.status().IsNotFound()) << sig << " node " << n;
      } else {
        ASSERT_TRUE(latest.ok()) << sig << " node " << n;
        EXPECT_DOUBLE_EQ(*latest, brute_latest);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardMergeProperty, ::testing::Range(1, 9));

// Property: any crash prefix of one shard, read through the merged view
// scoped to that run, is a valid allow_incomplete trace replaying
// exactly the completed tasks (the PR 2 failover contract, now against
// sharded storage).
class ShardCrashPrefixProperty : public ::testing::TestWithParam<int> {};

TEST_P(ShardCrashPrefixProperty, CrashPrefixReplaysCompletedTasks) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 15485863);
  ProvenanceManager manager;
  // A decoy shard interleaved with the victim: its events must never
  // leak into the victim's recovery trace.
  std::string victim = manager.BeginWorkflow("victim", 0.0);
  std::string decoy = manager.BeginWorkflow("decoy", 0.0);

  const int kChain = 2 + static_cast<int>(rng.UniformInt(4));
  for (TaskId id = 1; id <= kChain; ++id) {
    TaskSpec spec;
    spec.id = id;
    spec.signature = StrFormat("tool%lld", static_cast<long long>(id));
    spec.tool = spec.signature;
    spec.command = spec.signature + " --run";
    double start = 10.0 * static_cast<double>(id);
    manager.shard(victim)->RecordTaskStart(spec, 0, "node-000", start);
    if (id > 1) {
      manager.shard(victim)->RecordFileStageIn(
          id, StrFormat("/f%lld", static_cast<long long>(id - 1)), 100, 0.1,
          start);
    }
    // Interleave decoy traffic so victim seqs are non-contiguous.
    TaskResult noise;
    noise.id = 100 + id;
    noise.signature = "decoy-tool";
    noise.node = 1;
    noise.started_at = start;
    noise.finished_at = start + 1.0;
    noise.status = Status::OK();
    manager.shard(decoy)->RecordTaskEnd(noise, "node-001");
    TaskResult result;
    result.id = id;
    result.signature = spec.signature;
    result.node = 0;
    result.started_at = start;
    result.finished_at = start + 5.0;
    result.status = Status::OK();
    manager.shard(victim)->RecordTaskEnd(result, "node-000");
    manager.shard(victim)->RecordFileStageOut(
        id, StrFormat("/f%lld", static_cast<long long>(id)), 100, 0.1,
        start + 5.0);
  }

  // Crash at a random point: seal the shard, truncate its history to a
  // random prefix, and rebuild a source from the merged view of that run
  // alone.
  std::vector<ProvenanceEvent> shard_events =
      manager.shard(victim)->Events();
  size_t cut = 1 + rng.UniformInt(shard_events.size());
  std::vector<ProvenanceEvent> prefix(shard_events.begin(),
                                      shard_events.begin() + cut);
  size_t completed = 0;
  for (const ProvenanceEvent& ev : prefix) {
    if (ev.type == ProvenanceEventType::kTaskEnd && ev.success) ++completed;
  }
  auto source = TraceSource::FromEvents(prefix, victim,
                                        /*allow_incomplete=*/true);
  if (completed == 0) {
    EXPECT_FALSE(source.ok());
  } else {
    ASSERT_TRUE(source.ok())
        << "cut=" << cut << ": " << source.status().ToString();
    EXPECT_EQ((*source)->task_count(), completed);
  }

  // The full (uncrashed) shard read through ViewOf: same contract via
  // the merged-view entry point, decoy events excluded by construction.
  auto full = TraceSource::FromView(manager.ViewOf({victim}), victim,
                                    /*allow_incomplete=*/true);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ((*full)->task_count(), static_cast<size_t>(kChain));
  auto tasks = (*full)->Init();
  ASSERT_TRUE(tasks.ok());
  for (const TaskSpec& t : *tasks) {
    EXPECT_NE(t.signature, "decoy-tool");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardCrashPrefixProperty,
                         ::testing::Range(1, 13));

// ---- Driver robustness under churn -----------------------------------------

// A wide fan-out with flaky tools and a mid-run node loss still completes
// with every task executed exactly once (successfully).
TEST(ChurnTest, WideFanOutWithFailuresAndNodeLoss) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "8");
  karamel.SetAttribute("cluster/cores", "4");
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  auto d = karamel.Converge();
  ASSERT_TRUE(d.ok());
  Deployment& dep = **d;

  ToolProfile flaky;
  flaky.name = "flaky-proc";
  flaky.fixed_cpu_seconds = 8.0;
  flaky.failure_probability = 0.15;
  dep.tools.Register(flaky);

  const int kTasks = 120;
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < kTasks; ++i) {
    std::string in = StrFormat("/in/f%03d", i);
    ASSERT_TRUE(dep.dfs->IngestFile(in, 4 << 20).ok());
    TaskSpec t;
    t.id = i + 1;
    t.signature = "flaky-proc";
    t.tool = "flaky-proc";
    t.input_files = {in};
    t.outputs.push_back(
        OutputSpec{"out", StrFormat("/out/f%03d", i), {}, false});
    tasks.push_back(std::move(t));
  }
  StaticWorkflowSource source("churn", tasks);

  dep.engine.ScheduleAt(20.0, [&dep] {
    dep.rm->KillNode(3);
    dep.dfs->KillNode(3);
  });

  HiWayClient client(&dep);
  FcfsScheduler scheduler;
  HiWayOptions options;
  options.task_retry.max_attempts = 25;
  HiWayAm am(dep.cluster.get(), dep.rm.get(), dep.dfs.get(), &dep.tools,
             dep.provenance.get(), &dep.estimator, options);
  ASSERT_TRUE(am.Submit(&source, &scheduler).ok());
  auto report = am.RunToCompletion();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->status.ok()) << report->status.ToString();
  EXPECT_EQ(report->tasks_completed, kTasks);
  EXPECT_GE(report->failed_attempts, 1);  // flakiness actually exercised
  // Every output exists; exactly one successful end per task id.
  std::map<TaskId, int> successes;
  for (const ProvenanceEvent& ev : dep.provenance->Events()) {
    if (ev.type == ProvenanceEventType::kTaskEnd && ev.success) {
      ++successes[ev.task_id];
    }
  }
  EXPECT_EQ(successes.size(), static_cast<size_t>(kTasks));
  for (const auto& [id, n] : successes) EXPECT_EQ(n, 1);
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_TRUE(dep.dfs->Exists(StrFormat("/out/f%03d", i)));
  }
}

// Iterative + failures: k-means converges despite transient check
// failures (retried checks must not double-advance the iteration).
TEST(ChurnTest, IterativeWorkflowSurvivesRetries) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "4");
  karamel.SetAttribute("kmeans/converge_after", "4");
  karamel.SetAttribute("kmeans/points_mb", "8");
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(KmeansWorkflowRecipe());
  auto d = karamel.Converge();
  ASSERT_TRUE(d.ok());
  Deployment& dep = **d;
  // Make the step tool flaky. NOTE: the check tool stays reliable — its
  // invocation counter is the synthetic convergence clock.
  auto step = *dep.tools.Find("kmeans-step");
  ToolProfile flaky_step = *step;
  flaky_step.failure_probability = 0.3;
  dep.tools.Register(flaky_step);

  HiWayClient client(&dep);
  HiWayOptions options;
  options.task_retry.max_attempts = 30;
  auto report = client.Run("kmeans", "fcfs", options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->status.ok()) << report->status.ToString();
  // init + 4 x (step + check) distinct tasks, attempts >= completed.
  EXPECT_EQ(report->tasks_completed, 9);
  EXPECT_GE(report->task_attempts, report->tasks_completed);
}

// Decline-based scheduling makes progress even on a uniformly terrible
// cluster (decline budget + blacklist cap guarantee liveness).
TEST(ChurnTest, OnlineMctNeverStallsOnBadClusters) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "4");
  karamel.SetAttribute("cluster/cores", "2");
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  auto d = karamel.Converge();
  ASSERT_TRUE(d.ok());
  Deployment& dep = **d;
  // Stress everything: every node looks bad relative to the others.
  for (NodeId n = 0; n < 4; ++n) dep.load->StressCpu(n, 16);
  // Warm the estimator with observations that make all nodes look slow.
  for (NodeId n = 0; n < 4; ++n) dep.estimator.Observe("bowtie2", n, 500.0);

  ASSERT_TRUE(dep.dfs->IngestFile("/in/x", 4 << 20).ok());
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 6; ++i) {
    TaskSpec t;
    t.id = i + 1;
    t.signature = "bowtie2";
    t.tool = "bowtie2";
    t.input_files = {"/in/x"};
    t.outputs.push_back(OutputSpec{"out", StrFormat("/o%d", i), {}, false});
    tasks.push_back(std::move(t));
  }
  StaticWorkflowSource source("stall", tasks);
  HiWayClient client(&dep);
  auto report = client.RunSource(&source, "online-mct");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->status.ok()) << report->status.ToString();
  EXPECT_EQ(report->tasks_completed, 6);
}

}  // namespace
}  // namespace hiway
