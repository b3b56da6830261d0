// Tests for the intermediate-data GC stack (docs/storage-model.md): the
// DFS capacity model, reference-counted collection (src/gc/), the static
// footprint estimator, footprint-aware service admission, and the
// refcount invariants under faults (AM failover replay, preemption
// re-queue, spot-revoke drain) — a needed file is never collected.

#include "src/gc/intermediate_gc.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/common/strings.h"
#include "src/core/client.h"
#include "src/gc/footprint.h"
#include "src/infra/karamel.h"
#include "src/lang/cuneiform.h"
#include "src/service/workflow_service.h"
#include "src/sim/fault_injector.h"

namespace hiway {
namespace {

constexpr int64_t kMiB = 1LL << 20;

/// Snapshot of the DFS namespace: path -> size.
std::map<std::string, int64_t> DfsSnapshot(Dfs* dfs) {
  std::map<std::string, int64_t> files;
  for (const std::string& path : dfs->ListFiles()) {
    auto info = dfs->Stat(path);
    if (info.ok()) files[path] = info->size_bytes;
  }
  return files;
}

/// Minimal deployment for synthetic chain/DAG workloads. Replication 1
/// keeps raw == logical bytes, so capacity arithmetic reads off directly.
Result<std::unique_ptr<Deployment>> GcDeployment(
    const ChefAttributes& extra = {}, int workers = 6) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", StrFormat("%d", workers));
  karamel.SetAttribute("cluster/cores", "4");
  karamel.SetAttribute("dfs/replication", "1");
  karamel.SetAttribute("hiway/gc", "on");
  for (const auto& [k, v] : extra) karamel.SetAttribute(k, v);
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, karamel.Converge());
  ToolProfile chainstep;
  chainstep.name = "chainstep";
  chainstep.cpu_seconds_per_mb = 0.05;
  chainstep.fixed_cpu_seconds = 0.5;
  chainstep.runtime_noise_sigma = 0.0;
  d->tools.Register(std::move(chainstep));
  return d;
}

/// Deployment staging the snv workflow (for the fault tests, which reuse
/// the recipe workloads from service_test / elastic_test).
Result<std::unique_ptr<Deployment>> SnvGcDeployment(
    const ChefAttributes& extra = {}) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "6");
  karamel.SetAttribute("cluster/cores", "4");
  karamel.SetAttribute("snv/chunks", "8");
  karamel.SetAttribute("snv/chunk_mb", "32");
  karamel.SetAttribute("hiway/gc", "on");
  for (const auto& [k, v] : extra) karamel.SetAttribute(k, v);
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(SnvWorkflowRecipe());
  return karamel.Converge();
}

/// Linear chain under `prefix`: in -> mid0 -> ... -> out, every output
/// size declared, one output per task.
std::vector<TaskSpec> ChainTasks(const std::string& prefix, int stages,
                                 int64_t stage_bytes) {
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < stages; ++i) {
    TaskSpec t;
    t.id = i;
    t.signature = "chainstep";
    t.command = StrFormat("chainstep --stage %d", i);
    t.input_files = {i == 0 ? prefix + "/in"
                            : StrFormat("%s/mid%d", prefix.c_str(), i - 1)};
    OutputSpec out;
    out.param = "out";
    out.path = i == stages - 1 ? prefix + "/out"
                               : StrFormat("%s/mid%d", prefix.c_str(), i);
    out.size_bytes = stage_bytes;
    t.outputs.push_back(std::move(out));
    tasks.push_back(std::move(t));
  }
  return tasks;
}

// ---------------------------------------------------------------------
// DFS capacity model.
// ---------------------------------------------------------------------

TEST(GcTest, DfsCapacityRejectsWritesBeyondLimitAndDeleteFrees) {
  auto d = GcDeployment({{"dfs/capacity_mb", "16"}});
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  Dfs* dfs = (*d)->dfs.get();
  EXPECT_EQ(dfs->options().capacity_bytes, 16 * kMiB);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(dfs->IngestFile(StrFormat("/cap/f%d", i), 4 * kMiB).ok());
  }
  EXPECT_EQ(dfs->TotalStoredBytes(), 16 * kMiB);

  // One byte over capacity: refused, counted, nothing stored.
  Status over = dfs->IngestFile("/cap/over", 4 * kMiB);
  EXPECT_TRUE(over.IsResourceExhausted()) << over.ToString();
  EXPECT_EQ(dfs->counters().capacity_rejections, 1);
  EXPECT_EQ(dfs->TotalStoredBytes(), 16 * kMiB);
  EXPECT_FALSE(dfs->Stat("/cap/over").ok());

  // Delete frees capacity; the peak-footprint watermark persists.
  ASSERT_TRUE(dfs->Delete("/cap/f0").ok());
  EXPECT_EQ(dfs->counters().files_deleted, 1);
  EXPECT_EQ(dfs->counters().bytes_deleted, 4 * kMiB);
  EXPECT_EQ(dfs->TotalStoredBytes(), 12 * kMiB);
  EXPECT_EQ(dfs->counters().peak_footprint, 16 * kMiB);
  EXPECT_TRUE(dfs->IngestFile("/cap/again", 4 * kMiB).ok());
}

TEST(GcTest, DfsCapacityIsReplicaWeighted) {
  // Replication 2: a 4 MiB logical file occupies 8 MiB of raw capacity.
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "4");
  karamel.SetAttribute("dfs/replication", "2");
  karamel.SetAttribute("dfs/capacity_mb", "16");
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  auto d = karamel.Converge();
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  Dfs* dfs = (*d)->dfs.get();

  ASSERT_TRUE(dfs->IngestFile("/r/a", 4 * kMiB).ok());
  EXPECT_EQ(dfs->TotalStoredBytes(), 8 * kMiB);
  ASSERT_TRUE(dfs->IngestFile("/r/b", 4 * kMiB).ok());
  // 16 MiB raw stored; a third logical 4 MiB (8 raw) no longer fits.
  EXPECT_TRUE(dfs->IngestFile("/r/c", 4 * kMiB).IsResourceExhausted());
  ASSERT_TRUE(dfs->Delete("/r/a").ok());
  EXPECT_EQ(dfs->counters().bytes_deleted, 8 * kMiB);  // raw, both replicas
  EXPECT_TRUE(dfs->IngestFile("/r/c", 4 * kMiB).ok());
}

// ---------------------------------------------------------------------
// Reference-counted collection.
// ---------------------------------------------------------------------

TEST(GcTest, CollectsOnlyAfterLastConsumerCompletes) {
  auto d = GcDeployment();
  ASSERT_TRUE(d.ok());
  Dfs* dfs = (*d)->dfs.get();
  IntermediateGc* gc = (*d)->gc.get();
  ASSERT_NE(gc, nullptr);

  gc->BeginScope("r1", /*is_static=*/true);
  gc->SetTargets("r1", {"/w/out"});
  ASSERT_TRUE(dfs->IngestFile("/w/mid", 4 * kMiB).ok());
  gc->RegisterConsumer("r1", /*task=*/1, {dfs->Intern("/w/mid")});
  gc->RegisterConsumer("r1", /*task=*/2, {dfs->Intern("/w/mid")});
  gc->RegisterProduced("r1", dfs->Intern("/w/mid"), 4 * kMiB);

  // One of two consumers done: the pin of the other keeps the file.
  gc->OnConsumerDone("r1", 1);
  EXPECT_TRUE(dfs->Stat("/w/mid").ok());
  EXPECT_EQ(gc->stats().files_collected, 0);

  // Last consumer done: dead, collected online (static scope).
  gc->OnConsumerDone("r1", 2);
  EXPECT_FALSE(dfs->Stat("/w/mid").ok());
  EXPECT_EQ(gc->stats().files_collected, 1);
  EXPECT_EQ(gc->stats().bytes_collected, 4 * kMiB);

  // Targets are never collected, not even by the final pass.
  ASSERT_TRUE(dfs->IngestFile("/w/out", kMiB).ok());
  gc->RegisterProduced("r1", dfs->Intern("/w/out"), kMiB);
  GcScopeReport report = gc->EndScope("r1");
  EXPECT_TRUE(dfs->Stat("/w/out").ok());
  EXPECT_EQ(report.files_collected, 1);
  EXPECT_EQ(report.bytes_collected, 4 * kMiB);
  EXPECT_FALSE(gc->HasScope("r1"));
}

TEST(GcTest, IterativeScopeDefersCollectionToEndScope) {
  // A non-static source can discover new consumers of any path at any
  // time, so nothing may be collected online — only the EndScope pass.
  auto d = GcDeployment();
  ASSERT_TRUE(d.ok());
  Dfs* dfs = (*d)->dfs.get();
  IntermediateGc* gc = (*d)->gc.get();

  gc->BeginScope("iter", /*is_static=*/false);
  gc->SetTargets("iter", {"/it/out"});
  ASSERT_TRUE(dfs->IngestFile("/it/mid", 2 * kMiB).ok());
  gc->RegisterConsumer("iter", 1, {dfs->Intern("/it/mid")});
  gc->RegisterProduced("iter", dfs->Intern("/it/mid"), 2 * kMiB);
  gc->OnConsumerDone("iter", 1);
  // Dead by refcount, but the scope is iterative: still on disk.
  EXPECT_TRUE(dfs->Stat("/it/mid").ok());
  EXPECT_EQ(gc->stats().files_collected, 0);

  GcScopeReport report = gc->EndScope("iter");
  EXPECT_FALSE(dfs->Stat("/it/mid").ok());
  EXPECT_EQ(report.files_collected, 1);
}

TEST(GcTest, CrossScopeInterestBlocksCollection) {
  // Two concurrent runs reference the same path: neither may delete it
  // while the other holds an interest.
  auto d = GcDeployment();
  ASSERT_TRUE(d.ok());
  Dfs* dfs = (*d)->dfs.get();
  IntermediateGc* gc = (*d)->gc.get();

  ASSERT_TRUE(dfs->IngestFile("/sh/mid", 3 * kMiB).ok());
  gc->BeginScope("a", /*is_static=*/true);
  gc->BeginScope("b", /*is_static=*/true);
  gc->RegisterConsumer("a", 1, {dfs->Intern("/sh/mid")});
  gc->RegisterProduced("a", dfs->Intern("/sh/mid"), 3 * kMiB);
  gc->RegisterConsumer("b", 7, {dfs->Intern("/sh/mid")});

  // Scope a's refcount hits zero, but scope b still references the path.
  gc->OnConsumerDone("a", 1);
  EXPECT_TRUE(dfs->Stat("/sh/mid").ok());
  gc->EndScope("a");
  EXPECT_TRUE(dfs->Stat("/sh/mid").ok());  // b's interest survives a

  // b finishes its consumer; its EndScope releases the last interest
  // and the final pass collects the file a produced... except b did not
  // produce it, so the path simply outlives both scopes (a foreign file
  // is never deleted by a scope that only read it).
  gc->OnConsumerDone("b", 7);
  gc->EndScope("b");
  EXPECT_TRUE(dfs->Stat("/sh/mid").ok());

  // Reverse order: the producing scope ends last and does collect.
  ASSERT_TRUE(dfs->IngestFile("/sh2/mid", 3 * kMiB).ok());
  gc->BeginScope("c", /*is_static=*/true);
  gc->BeginScope("e", /*is_static=*/true);
  gc->RegisterConsumer("c", 1, {dfs->Intern("/sh2/mid")});
  gc->RegisterProduced("c", dfs->Intern("/sh2/mid"), 3 * kMiB);
  gc->RegisterConsumer("e", 2, {dfs->Intern("/sh2/mid")});
  gc->OnConsumerDone("c", 1);
  gc->OnConsumerDone("e", 2);
  gc->EndScope("e");
  EXPECT_TRUE(dfs->Stat("/sh2/mid").ok());  // c, the producer, still live
  gc->EndScope("c");
  EXPECT_FALSE(dfs->Stat("/sh2/mid").ok());
}

TEST(GcTest, DormantScopeStopsOnlineCollection) {
  // After an AM crash the scope freezes: interests kept, no collection
  // until the service dissolves it with EndScope.
  auto d = GcDeployment();
  ASSERT_TRUE(d.ok());
  Dfs* dfs = (*d)->dfs.get();
  IntermediateGc* gc = (*d)->gc.get();

  gc->BeginScope("dead", /*is_static=*/true);
  ASSERT_TRUE(dfs->IngestFile("/dm/mid", kMiB).ok());
  gc->RegisterConsumer("dead", 1, {dfs->Intern("/dm/mid")});
  gc->RegisterProduced("dead", dfs->Intern("/dm/mid"), kMiB);
  gc->MarkDormant("dead");
  gc->OnConsumerDone("dead", 1);
  EXPECT_TRUE(dfs->Stat("/dm/mid").ok());  // frozen, not collected

  // Replacement attempt re-registers its interest before the dormant
  // scope dissolves; the file survives the dissolution.
  gc->BeginScope("next", /*is_static=*/true);
  gc->RegisterConsumer("next", 1, {dfs->Intern("/dm/mid")});
  gc->EndScope("dead");
  EXPECT_TRUE(dfs->Stat("/dm/mid").ok());
  gc->OnConsumerDone("next", 1);
  gc->EndScope("next");
}

// ---------------------------------------------------------------------
// GC x result cache: sealed entries pin their outputs.
// ---------------------------------------------------------------------

TEST(GcTest, ResultCachePinsDeferCollectionAndHitsSurvive) {
  auto d = GcDeployment({{"hiway/cache_results", "on"}});
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ASSERT_NE((*d)->result_cache, nullptr);
  ASSERT_NE((*d)->gc, nullptr);
  ASSERT_TRUE((*d)->dfs->IngestFile("/c/in", 4 * kMiB).ok());
  std::vector<TaskSpec> tasks = ChainTasks("/c", 4, 4 * kMiB);
  std::vector<std::string> targets = {"/c/out"};

  HiWayClient client(d->get());
  StaticWorkflowSource first("chain", tasks, targets);
  auto r1 = client.RunSource(&first, "data-aware", {});
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r1->status.ok());

  // Every intermediate is dead (last consumer completed) but sealed in
  // the result cache: collection deferred, nothing deleted.
  EXPECT_EQ(r1->gc_files_collected, 0);
  EXPECT_GT((*d)->gc->stats().cache_deferrals, 0);
  EXPECT_TRUE((*d)->dfs->Stat("/c/mid0").ok());

  // Re-running the same workflow hits the cache — proof the collector
  // never invalidated a sealed entry's outputs.
  StaticWorkflowSource second("chain", tasks, targets);
  auto r2 = client.RunSource(&second, "data-aware", {});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_TRUE(r2->status.ok());
  EXPECT_GT(r2->tasks_cached, 0);
}

// ---------------------------------------------------------------------
// Footprint estimator.
// ---------------------------------------------------------------------

TEST(GcTest, EstimatorHandComputedChainAndDiamond) {
  auto d = GcDeployment();
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE((*d)->dfs->IngestFile("/e/in", 4 * kMiB).ok());

  // Chain: at any step the staged input, the stage's own output, and its
  // not-yet-retired predecessor are live -> 3 x 4 MiB.
  std::vector<TaskSpec> chain = ChainTasks("/e", 8, 4 * kMiB);
  FootprintEstimate est = EstimateFootprint(chain, {"/e/out"},
                                            (*d)->dfs.get());
  EXPECT_EQ(est.peak_bytes, 3 * 4 * kMiB);
  EXPECT_EQ(est.input_bytes, 4 * kMiB);
  EXPECT_EQ(est.total_produced_bytes, 8 * 4 * kMiB);
  EXPECT_TRUE(est.exact_sizes);

  // Diamond in -> split -> {a, b} -> out: the join step holds in, a, b,
  // and out simultaneously (split retired when b completed) -> 4 x 4 MiB.
  auto task = [](TaskId id, std::vector<std::string> inputs,
                 const std::string& out_path) {
    TaskSpec t;
    t.id = id;
    t.signature = "chainstep";
    t.command = "chainstep";
    t.input_files = std::move(inputs);
    OutputSpec out;
    out.param = "out";
    out.path = out_path;
    out.size_bytes = 4 * kMiB;
    t.outputs.push_back(std::move(out));
    return t;
  };
  std::vector<TaskSpec> diamond = {
      task(0, {"/e/in"}, "/e/split"), task(1, {"/e/split"}, "/e/a"),
      task(2, {"/e/split"}, "/e/b"), task(3, {"/e/a", "/e/b"}, "/e/out")};
  est = EstimateFootprint(diamond, {"/e/out"}, (*d)->dfs.get());
  EXPECT_EQ(est.peak_bytes, 4 * 4 * kMiB);

  // An undeclared output size falls back to sum-of-inputs and degrades
  // the estimate to a heuristic.
  diamond[3].outputs[0].size_bytes.reset();
  est = EstimateFootprint(diamond, {"/e/out"}, (*d)->dfs.get());
  EXPECT_FALSE(est.exact_sizes);
}

/// Deterministic LCG so the property test replays identically.
struct Lcg {
  uint64_t state;
  uint64_t Next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
  int Uniform(int bound) { return static_cast<int>(Next() % bound); }
};

/// Random DAG with one declared-size output per task; early tasks read a
/// shared external input, later tasks read a random subset of earlier
/// outputs. Returns targets = the last task's output (other sinks are
/// dead-on-arrival, covering the estimator's DOA branch).
std::vector<TaskSpec> RandomDag(Lcg& rng, const std::string& prefix,
                                int n_tasks) {
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < n_tasks; ++i) {
    TaskSpec t;
    t.id = i;
    t.signature = "chainstep";
    t.command = StrFormat("chainstep --n %d", i);
    for (int j = 0; j < i; ++j) {
      if (rng.Uniform(100) < 35) {
        t.input_files.push_back(StrFormat("%s/f%d", prefix.c_str(), j));
      }
    }
    if (t.input_files.empty()) {
      t.input_files.push_back(prefix + "/ext");
    }
    OutputSpec out;
    out.param = "out";
    out.path = StrFormat("%s/f%d", prefix.c_str(), i);
    out.size_bytes = static_cast<int64_t>(1 + rng.Uniform(8)) * kMiB;
    t.outputs.push_back(std::move(out));
    tasks.push_back(std::move(t));
  }
  return tasks;
}

/// Independent brute-force liveness: walk the same Kahn order, but
/// recompute the live set FROM SCRATCH at every step — a file is live
/// iff it is the external input, a target, a produced file with a
/// consumer that has not yet run, or the output just produced. Valid for
/// one-output-per-task graphs (the estimator's transient peak counts one
/// dead-on-arrival output at a time).
int64_t BruteForcePeak(const std::vector<TaskSpec>& tasks,
                       const std::set<std::string>& targets,
                       const std::map<std::string, int64_t>& externals) {
  std::map<std::string, size_t> producer_of;
  std::map<std::string, int64_t> size_of;
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (const OutputSpec& out : tasks[i].outputs) {
      producer_of[out.path] = i;
      size_of[out.path] = out.size_bytes.value_or(0);
    }
  }
  // Kahn order, ready queue in index order (matches the estimator).
  std::vector<int> missing(tasks.size(), 0);
  std::vector<std::vector<size_t>> dependents(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    std::set<std::string> inputs(tasks[i].input_files.begin(),
                                 tasks[i].input_files.end());
    for (const std::string& path : inputs) {
      auto p = producer_of.find(path);
      if (p != producer_of.end() && p->second != i) {
        ++missing[i];
        dependents[p->second].push_back(i);
      }
    }
  }
  std::vector<size_t> order;
  std::vector<size_t> ready;
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (missing[i] == 0) ready.push_back(i);
  }
  while (!ready.empty()) {
    size_t i = ready.front();
    ready.erase(ready.begin());
    order.push_back(i);
    for (size_t dep : dependents[i]) {
      if (--missing[dep] == 0) ready.push_back(dep);
    }
  }

  int64_t ext_bytes = 0;
  for (const auto& [path, size] : externals) ext_bytes += size;
  int64_t peak = ext_bytes;
  std::set<size_t> done;
  for (size_t step = 0; step < order.size(); ++step) {
    size_t t = order[step];
    // Live at the instant t's output lands, before t's inputs retire:
    // every file produced by a completed task that is a target or still
    // awaits a consumer outside done, plus t's own fresh output.
    int64_t live = ext_bytes;
    for (size_t j : done) {
      for (const OutputSpec& out : tasks[j].outputs) {
        bool needed = targets.count(out.path) > 0;
        for (size_t k = 0; !needed && k < tasks.size(); ++k) {
          if (done.count(k) > 0) continue;
          for (const std::string& in : tasks[k].input_files) {
            if (in == out.path) {
              needed = true;
              break;
            }
          }
        }
        if (needed) live += size_of[out.path];
      }
    }
    for (const OutputSpec& out : tasks[t].outputs) {
      live += size_of[out.path];
    }
    peak = std::max(peak, live);
    done.insert(t);
  }
  return peak;
}

TEST(GcTest, EstimatorMatchesBruteForceOnRandomDags) {
  Lcg rng{0x9e3779b97f4a7c15ULL};
  for (int g = 0; g < 20; ++g) {
    int n = 3 + rng.Uniform(8);
    std::string prefix = StrFormat("/p%02d", g);
    std::vector<TaskSpec> tasks = RandomDag(rng, prefix, n);
    std::string target = StrFormat("%s/f%d", prefix.c_str(), n - 1);
    int64_t ext_size = static_cast<int64_t>(1 + rng.Uniform(4)) * kMiB;

    // dfs = nullptr exercises the unknown-external path (size 0); the
    // brute force then sees an empty externals map.
    FootprintEstimate no_dfs = EstimateFootprint(tasks, {target}, nullptr);
    EXPECT_EQ(no_dfs.peak_bytes, BruteForcePeak(tasks, {target}, {}))
        << "graph " << g << " (no dfs)";
    EXPECT_EQ(no_dfs.input_bytes, 0);

    auto d = GcDeployment({}, /*workers=*/2);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE((*d)->dfs->IngestFile(prefix + "/ext", ext_size).ok());
    FootprintEstimate est = EstimateFootprint(tasks, {target},
                                              (*d)->dfs.get());
    int64_t brute = BruteForcePeak(tasks, {target},
                                   {{prefix + "/ext", ext_size}});
    EXPECT_EQ(est.peak_bytes, brute) << "graph " << g;
    EXPECT_EQ(est.input_bytes, ext_size) << "graph " << g;
    EXPECT_TRUE(est.exact_sizes);
  }
}

TEST(GcTest, RandomDagsRunByteIdenticalWithGcOnAndOff) {
  // End-to-end: the collector must never change workflow results. Same
  // random DAG executed with GC on and off — identical target bytes, and
  // with GC on the non-target intermediates are gone afterwards.
  Lcg rng{0xc0ffee123ULL};
  for (int g = 0; g < 4; ++g) {
    int n = 4 + rng.Uniform(5);
    std::string prefix = StrFormat("/rt%d", g);
    std::vector<TaskSpec> tasks = RandomDag(rng, prefix, n);
    std::string target = StrFormat("%s/f%d", prefix.c_str(), n - 1);

    auto run = [&](bool gc) {
      ChefAttributes attrs;
      if (!gc) attrs["hiway/gc"] = "off";
      auto d = GcDeployment(attrs);
      EXPECT_TRUE(d.ok());
      EXPECT_TRUE((*d)->dfs->IngestFile(prefix + "/ext", 2 * kMiB).ok());
      StaticWorkflowSource source("dag", tasks, {target});
      HiWayClient client(d->get());
      auto report = client.RunSource(&source, "data-aware", {});
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_TRUE(report->status.ok()) << report->status.ToString();
      if (gc) {
        // Final pass ran: every non-target produced file was collected.
        for (int i = 0; i < n - 1; ++i) {
          EXPECT_FALSE(
              (*d)->dfs->Stat(StrFormat("%s/f%d", prefix.c_str(), i)).ok())
              << "graph " << g << " file f" << i << " survived GC";
        }
        EXPECT_GT(report->gc_files_collected, 0);
        EXPECT_GT(report->peak_footprint_bytes, 0);
      }
      auto info = (*d)->dfs->Stat(target);
      EXPECT_TRUE(info.ok());
      return info.ok() ? std::make_pair(info->size_bytes, info->content_id)
                       : std::make_pair(int64_t{-1}, uint64_t{0});
    };
    auto with_gc = run(true);
    auto without_gc = run(false);
    EXPECT_EQ(with_gc, without_gc) << "graph " << g;
  }
}

// ---------------------------------------------------------------------
// Refcount invariants under faults: a needed file is never collected.
// ---------------------------------------------------------------------

TEST(GcTest, FailoverReplayNeverCollectsNeededFiles) {
  // Clean GC-on run for the makespan and the reference outputs.
  const int kStages = 6;
  auto mk_source = [&]() {
    return std::unique_ptr<WorkflowSource>(new StaticWorkflowSource(
        "chain", ChainTasks("/fo", kStages, 4 * kMiB), {"/fo/out"}));
  };
  auto run = [&](double strike) {
    auto d = GcDeployment();
    EXPECT_TRUE(d.ok());
    EXPECT_TRUE((*d)->dfs->IngestFile("/fo/in", 4 * kMiB).ok());
    auto service =
        WorkflowService::Create(d->get(), WorkflowServiceOptions{});
    EXPECT_TRUE(service.ok());
    SubmissionOptions opts;
    opts.source_factory = [&] {
      return Result<std::unique_ptr<WorkflowSource>>(mk_source());
    };
    auto id = (*service)->Submit("chain", mk_source(), opts);
    EXPECT_TRUE(id.ok());
    FaultInjector injector(&(*d)->engine);
    if (strike > 0) {
      (*service)->InstallFaultHandlers(&injector);
      EXPECT_TRUE(injector
                      .ArmSpec(StrFormat("kill-am-node:at=%.3f:sub=%lld",
                                         strike,
                                         static_cast<long long>(*id)))
                      .ok());
    }
    EXPECT_TRUE((*service)->RunToCompletion().ok());
    const SubmissionRecord* rec = (*service)->record(*id);
    EXPECT_EQ(rec->state, SubmissionState::kSucceeded)
        << rec->report.status.ToString();
    if (strike > 0) {
      EXPECT_EQ(rec->am_attempts, 2);
      // The replacement memoised the dead attempt's completed prefix;
      // replay re-registered every interest, so no input of a re-run
      // task had been collected (a collected input would have failed
      // the run outright).
      EXPECT_GT(rec->report.tasks_memoised, 0);
    }
    // All scopes dissolved: the dormant dead-attempt scope included.
    EXPECT_EQ((*d)->gc->stats().scopes_opened,
              (*d)->gc->stats().scopes_ended);
    struct Out {
      double makespan;
      std::map<std::string, int64_t> files;
    };
    return Out{rec->finished_at, DfsSnapshot((*d)->dfs.get())};
  };

  auto clean = run(0.0);
  auto faulted = run(0.6 * clean.makespan);
  // Byte-identical surviving namespace: the chain's target and input,
  // with every intermediate collected in both runs.
  for (const auto& [path, size] : clean.files) {
    auto it = faulted.files.find(path);
    ASSERT_NE(it, faulted.files.end()) << path;
    EXPECT_EQ(it->second, size) << path;
  }
  EXPECT_EQ(clean.files.count("/fo/out"), 1u);
  EXPECT_EQ(clean.files.count("/fo/mid0"), 0u);
}

TEST(GcTest, PreemptedTasksKeepTheirInputPins) {
  // The service_test preemption scenario with the collector enabled: a
  // preempted task is re-queued without OnConsumerDone, so its inputs
  // stay pinned and the retry finds them intact. Success with
  // max_attempts = 1 on the batch queue proves both the attempt
  // exemption and the pin retention.
  auto d = SnvGcDeployment({{"yarn/preemption", "true"},
                            {"yarn/preemption_grace_s", "2"},
                            {"yarn/max_preempt_per_round", "8"},
                            {"cluster/workers", "4"}});
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ASSERT_NE((*d)->gc, nullptr);
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
  batch_opts.hiway.task_retry.max_attempts = 1;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE((*service)->SubmitStaged("snv-calling", batch_opts).ok());
  }
  (*d)->engine.ScheduleAt(25.0, [&] {
    SubmissionOptions prod_opts;
    prod_opts.queue = "prod";
    prod_opts.hiway.container_priority = 10;
    ASSERT_TRUE((*service)->SubmitStaged("snv-calling", prod_opts).ok());
  });
  ASSERT_TRUE((*service)->RunToCompletion().ok());

  int preempted = 0;
  for (const SubmissionRecord& rec : (*service)->Records()) {
    EXPECT_EQ(rec.state, SubmissionState::kSucceeded)
        << rec.name << ": " << rec.report.status.ToString();
    EXPECT_EQ(rec.report.failed_attempts, 0) << rec.name;
    preempted += rec.report.tasks_preempted;
  }
  EXPECT_GT(preempted, 0);  // preemption really happened
  EXPECT_EQ((*d)->gc->stats().scopes_opened, (*d)->gc->stats().scopes_ended);
}

TEST(GcTest, SpotRevokeDrainKeepsInputPinsThroughRequeue) {
  auto d = SnvGcDeployment({{"hiway/cache_staging_mb", "0"}});
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());

  FaultInjector injector(&(*d)->engine, /*seed=*/13);
  (*service)->InstallFaultHandlers(&injector);
  ASSERT_TRUE(injector.ArmSpec("spot-revoke@40:warn=120").ok());

  auto id = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  const SubmissionRecord* rec = (*service)->record(*id);
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->state, SubmissionState::kSucceeded)
      << rec->report.status.ToString();
  EXPECT_EQ(injector.counters().spot_revocations, 1);
  // Drained requeues keep their pins: no failed attempts, no data loss.
  EXPECT_EQ(rec->report.failed_attempts, 0);
  EXPECT_TRUE((*d)->dfs->AllFilesReadable());
}

// ---------------------------------------------------------------------
// Footprint-aware admission.
// ---------------------------------------------------------------------

TEST(GcTest, AdmissionSerialisesOversubscribedBurst) {
  // 64 MiB capacity, three workflows each declaring 30 MiB of additional
  // footprint: only one fits the budget at a time, so the service must
  // serialise them — and all three finish.
  auto d = GcDeployment({{"dfs/capacity_mb", "64"}});
  ASSERT_TRUE(d.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        (*d)->dfs->IngestFile(StrFormat("/a%d/in", i), 4 * kMiB).ok());
  }
  WorkflowServiceOptions options;
  options.footprint_admission = true;
  auto service = WorkflowService::Create(d->get(), options);
  ASSERT_TRUE(service.ok());
  // Budget = capacity - staged baseline = 64 - 12 = 52 MiB.
  EXPECT_EQ((*service)->footprint_budget_bytes(), 52 * kMiB);

  for (int i = 0; i < 3; ++i) {
    std::string prefix = StrFormat("/a%d", i);
    SubmissionOptions opts;
    opts.footprint_bytes = 30 * kMiB;
    auto source = std::make_unique<StaticWorkflowSource>(
        "chain", ChainTasks(prefix, 4, 4 * kMiB),
        std::vector<std::string>{prefix + "/out"});
    ASSERT_TRUE(
        (*service)->Submit(prefix, std::move(source), opts).ok());
  }
  // 30 + 30 > 52: only the first submission starts immediately.
  EXPECT_EQ((*service)->running_ams(), 1);
  EXPECT_EQ((*service)->committed_footprint_bytes(), 30 * kMiB);

  ASSERT_TRUE((*service)->RunToCompletion().ok());
  // Records() returns a copy: keep it alive while `recs` points into it.
  std::vector<SubmissionRecord> records = (*service)->Records();
  std::vector<const SubmissionRecord*> recs;
  for (const SubmissionRecord& rec : records) {
    EXPECT_EQ(rec.state, SubmissionState::kSucceeded)
        << rec.name << ": " << rec.report.status.ToString();
    recs.push_back(&rec);
  }
  ASSERT_EQ(recs.size(), 3u);
  // Strict serialisation: each start waited for the previous finish.
  EXPECT_GE(recs[1]->started_at, recs[0]->finished_at);
  EXPECT_GE(recs[2]->started_at, recs[1]->finished_at);
  // Every charge was released on completion.
  EXPECT_EQ((*service)->committed_footprint_bytes(), 0);
}

TEST(GcTest, AdmissionFailsWorkflowThatCanNeverFit) {
  auto d = GcDeployment({{"dfs/capacity_mb", "32"}});
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE((*d)->dfs->IngestFile("/nf/in", 4 * kMiB).ok());
  WorkflowServiceOptions options;
  options.footprint_admission = true;
  auto service = WorkflowService::Create(d->get(), options);
  ASSERT_TRUE(service.ok());

  SubmissionOptions opts;
  opts.footprint_bytes = 100 * kMiB;  // larger than the whole budget
  auto source = std::make_unique<StaticWorkflowSource>(
      "chain", ChainTasks("/nf", 4, 4 * kMiB),
      std::vector<std::string>{"/nf/out"});
  auto id = (*service)->Submit("/nf", std::move(source), opts);
  ASSERT_TRUE(id.ok());  // accepted into the queue...
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  const SubmissionRecord* rec = (*service)->record(*id);
  ASSERT_NE(rec, nullptr);
  // ...but terminally rejected at start: it can never fit the budget.
  EXPECT_EQ(rec->state, SubmissionState::kFailed);
  EXPECT_TRUE(rec->report.status.IsResourceExhausted())
      << rec->report.status.ToString();
  EXPECT_EQ((*service)->committed_footprint_bytes(), 0);
}

TEST(GcTest, AdmissionAutoEstimatesStaticSources) {
  // Default footprint_bytes = -1: the service estimates the chain's peak
  // itself (12 MiB) and charges peak - staged inputs = 8 MiB.
  auto d = GcDeployment({{"dfs/capacity_mb", "64"}});
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE((*d)->dfs->IngestFile("/ae/in", 4 * kMiB).ok());
  WorkflowServiceOptions options;
  options.footprint_admission = true;
  auto service = WorkflowService::Create(d->get(), options);
  ASSERT_TRUE(service.ok());

  auto mk = [] {
    return Result<std::unique_ptr<WorkflowSource>>(
        std::unique_ptr<WorkflowSource>(new StaticWorkflowSource(
            "chain", ChainTasks("/ae", 6, 4 * kMiB), {"/ae/out"})));
  };
  SubmissionOptions opts;
  opts.source_factory = mk;
  auto source = mk();
  ASSERT_TRUE(source.ok());
  auto id = (*service)->Submit("/ae", std::move(*source), opts);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ((*service)->committed_footprint_bytes(), 8 * kMiB);
  const SubmissionRecord* rec = (*service)->record(*id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->footprint_estimate_bytes, 12 * kMiB);

  ASSERT_TRUE((*service)->RunToCompletion().ok());
  rec = (*service)->record(*id);
  EXPECT_EQ(rec->state, SubmissionState::kSucceeded)
      << rec->report.status.ToString();
  // The traced actual peak matches the admission estimate (declared
  // sizes, serial chain: the estimator is exact here).
  EXPECT_EQ(rec->report.peak_footprint_bytes, 12 * kMiB);
  EXPECT_EQ((*service)->committed_footprint_bytes(), 0);
}

TEST(GcTest, AdmissionEstimatesTheSubmittedSourceWithoutAFactory) {
  // The estimate walks the submitted source itself: static submissions
  // with no source factory are estimated and gated, and an iterative
  // (Cuneiform) submission still bypasses the gate.
  auto d = GcDeployment({{"dfs/capacity_mb", "64"}});
  ASSERT_TRUE(d.ok());
  for (const char* input : {"/sf/in", "/big/in", "/cf/in"}) {
    ASSERT_TRUE((*d)->dfs->IngestFile(input, 4 * kMiB).ok());
  }
  WorkflowServiceOptions options;
  options.footprint_admission = true;
  auto service = WorkflowService::Create(d->get(), options);
  ASSERT_TRUE(service.ok());
  // Budget = capacity - staged baseline = 64 - 12 = 52 MiB.
  ASSERT_EQ((*service)->footprint_budget_bytes(), 52 * kMiB);

  // Peak 12 MiB (input + two live stages), charged 12 - 4 = 8 MiB.
  auto fits = (*service)->Submit(
      "/sf",
      std::make_unique<StaticWorkflowSource>(
          "chain", ChainTasks("/sf", 6, 4 * kMiB),
          std::vector<std::string>{"/sf/out"}),
      SubmissionOptions{});
  ASSERT_TRUE(fits.ok());
  EXPECT_EQ((*service)->record(*fits)->footprint_estimate_bytes, 12 * kMiB);
  EXPECT_EQ((*service)->committed_footprint_bytes(), 8 * kMiB);

  // Peak 4 + 40 + 40 MiB: more than the whole budget, so it can never
  // start.
  auto never = (*service)->Submit(
      "/big",
      std::make_unique<StaticWorkflowSource>(
          "chain", ChainTasks("/big", 3, 40 * kMiB),
          std::vector<std::string>{"/big/out"}),
      SubmissionOptions{});
  ASSERT_TRUE(never.ok());
  EXPECT_EQ((*service)->record(*never)->footprint_estimate_bytes,
            84 * kMiB);

  auto cuneiform = CuneiformSource::Parse(
      "deftask step( out : inp ) in 'chainstep';\n"
      "target step( inp: '/cf/in' );\n");
  ASSERT_TRUE(cuneiform.ok()) << cuneiform.status().ToString();
  auto iterative = (*service)->Submit("/cf", std::move(*cuneiform),
                                      SubmissionOptions{});
  ASSERT_TRUE(iterative.ok());
  EXPECT_EQ((*service)->record(*iterative)->footprint_estimate_bytes, 0);
  EXPECT_EQ((*service)->committed_footprint_bytes(), 8 * kMiB);

  ASSERT_TRUE((*service)->RunToCompletion().ok());
  EXPECT_EQ((*service)->record(*fits)->state, SubmissionState::kSucceeded);
  const SubmissionRecord* rejected = (*service)->record(*never);
  EXPECT_EQ(rejected->state, SubmissionState::kFailed);
  EXPECT_TRUE(rejected->report.status.IsResourceExhausted())
      << rejected->report.status.ToString();
  EXPECT_EQ((*service)->record(*iterative)->state,
            SubmissionState::kSucceeded)
      << (*service)->record(*iterative)->report.status.ToString();
  EXPECT_EQ((*service)->committed_footprint_bytes(), 0);
}

TEST(GcTest, AdmissionBypassAndCapExemptionWhenUncapped) {
  // footprint_bytes = 0 bypasses the gate even when admission is on; an
  // uncapped DFS disables the gate entirely (budget 0).
  auto d = GcDeployment();  // no capacity attr -> unlimited
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE((*d)->dfs->IngestFile("/by/in", 4 * kMiB).ok());
  WorkflowServiceOptions options;
  options.footprint_admission = true;
  auto service = WorkflowService::Create(d->get(), options);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->footprint_budget_bytes(), 0);

  SubmissionOptions opts;
  opts.footprint_bytes = 0;
  auto source = std::make_unique<StaticWorkflowSource>(
      "chain", ChainTasks("/by", 4, 4 * kMiB),
      std::vector<std::string>{"/by/out"});
  auto id = (*service)->Submit("/by", std::move(source), opts);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ((*service)->committed_footprint_bytes(), 0);
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  EXPECT_EQ((*service)->record(*id)->state, SubmissionState::kSucceeded);
}

}  // namespace
}  // namespace hiway
