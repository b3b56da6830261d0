// Tests for the Workflow Scheduler policies: FCFS ordering, data-aware
// locality maximisation, static round-robin placement, HEFT ranking and
// adaptive placement, and the factory.

#include "src/core/scheduler.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/strings.h"
#include "src/gc/footprint.h"
#include "src/lang/workflow_validate.h"
#include "tests/oracles/locality_oracle.h"
#include "tests/oracles/provenance_oracle.h"

namespace hiway {
namespace {

std::vector<NodeId> Nodes(int n) {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < n; ++i) out.push_back(i);
  return out;
}

TaskSpec Task(TaskId id, std::string signature,
              std::vector<std::string> inputs = {},
              std::vector<std::string> outputs = {}) {
  TaskSpec t;
  t.id = id;
  t.signature = std::move(signature);
  t.tool = t.signature;
  t.input_files = std::move(inputs);
  int i = 0;
  for (std::string& out : outputs) {
    t.outputs.push_back(OutputSpec{StrFormat("o%d", i++), std::move(out),
                                   {}, false});
  }
  t.vcores = 1;
  t.memory_mb = 512;
  return t;
}

// ------------------------------------------------------------------ FCFS --

TEST(FcfsSchedulerTest, SelectsInQueueOrderRegardlessOfNode) {
  FcfsScheduler scheduler;
  scheduler.EnqueueReady(Task(1, "a"));
  scheduler.EnqueueReady(Task(2, "b"));
  scheduler.EnqueueReady(Task(3, "c"));
  EXPECT_EQ(scheduler.QueuedCount(), 3u);
  EXPECT_EQ(*scheduler.SelectTask(5), 1);
  EXPECT_EQ(*scheduler.SelectTask(0), 2);
  EXPECT_EQ(*scheduler.SelectTask(2), 3);
  EXPECT_FALSE(scheduler.SelectTask(0).has_value());
}

TEST(FcfsSchedulerTest, RequestHasNoPlacementPreference) {
  FcfsScheduler scheduler;
  ContainerRequest r = scheduler.RequestFor(Task(1, "a"));
  EXPECT_EQ(r.preferred_node, kInvalidNode);
  EXPECT_FALSE(r.strict_locality);
}

TEST(FcfsSchedulerTest, RemoveTaskDropsIt) {
  FcfsScheduler scheduler;
  scheduler.EnqueueReady(Task(1, "a"));
  scheduler.EnqueueReady(Task(2, "b"));
  scheduler.RemoveTask(1);
  EXPECT_EQ(scheduler.QueuedCount(), 1u);
  EXPECT_EQ(*scheduler.SelectTask(0), 2);
}

// ------------------------------------------------------------ data-aware --

struct DataAwareRig {
  SimEngine engine;
  FlowNetwork net{&engine};
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Dfs> dfs;

  explicit DataAwareRig(int nodes) {
    cluster = std::make_unique<Cluster>(
        &engine, &net, ClusterSpec::Uniform(nodes, NodeSpec{}, 1000.0));
    DfsOptions options;
    options.replication = 1;  // make locality unambiguous
    dfs = std::make_unique<Dfs>(cluster.get(), options);
  }
};

TEST(DataAwareSchedulerTest, PicksTaskWithMostLocalData) {
  DataAwareRig rig(3);
  ASSERT_TRUE(rig.dfs->IngestFile("/on0", 100 << 20, NodeId{0}).ok());
  ASSERT_TRUE(rig.dfs->IngestFile("/on2", 100 << 20, NodeId{2}).ok());
  DataAwareScheduler scheduler(rig.dfs.get());
  scheduler.EnqueueReady(Task(1, "t", {"/on0"}));
  scheduler.EnqueueReady(Task(2, "t", {"/on2"}));
  // A container on node 2 should run task 2 even though task 1 is older.
  EXPECT_EQ(*scheduler.SelectTask(2), 2);
  EXPECT_EQ(*scheduler.SelectTask(0), 1);
}

TEST(DataAwareSchedulerTest, FractionNotAbsoluteBytesDecides) {
  DataAwareRig rig(2);
  // Task 1: 10 MB input fully on node 1 (fraction 1.0).
  ASSERT_TRUE(rig.dfs->IngestFile("/small", 10 << 20, NodeId{1}).ok());
  // Task 2: two inputs, 100 MB on node 0, 100 MB on node 1 (fraction 0.5).
  ASSERT_TRUE(rig.dfs->IngestFile("/big0", 100 << 20, NodeId{0}).ok());
  ASSERT_TRUE(rig.dfs->IngestFile("/big1", 100 << 20, NodeId{1}).ok());
  DataAwareScheduler scheduler(rig.dfs.get());
  scheduler.EnqueueReady(Task(2, "t", {"/big0", "/big1"}));
  scheduler.EnqueueReady(Task(1, "t", {"/small"}));
  EXPECT_EQ(*scheduler.SelectTask(1), 1);  // 1.0 beats 0.5 despite fewer MB
}

TEST(DataAwareSchedulerTest, TiesResolveFifo) {
  DataAwareRig rig(2);
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 10 << 20, NodeId{0}).ok());
  ASSERT_TRUE(rig.dfs->IngestFile("/b", 10 << 20, NodeId{0}).ok());
  DataAwareScheduler scheduler(rig.dfs.get());
  scheduler.EnqueueReady(Task(1, "t", {"/a"}));
  scheduler.EnqueueReady(Task(2, "t", {"/b"}));
  EXPECT_EQ(*scheduler.SelectTask(0), 1);
  EXPECT_EQ(*scheduler.SelectTask(0), 2);
}

TEST(DataAwareSchedulerTest, RequestPrefersNodeWithMostData) {
  DataAwareRig rig(3);
  ASSERT_TRUE(rig.dfs->IngestFile("/x", 50 << 20, NodeId{1}).ok());
  DataAwareScheduler scheduler(rig.dfs.get());
  ContainerRequest r = scheduler.RequestFor(Task(1, "t", {"/x"}));
  EXPECT_EQ(r.preferred_node, 1);
  EXPECT_FALSE(r.strict_locality);  // relaxed: any node may still serve
}

TEST(DataAwareSchedulerTest, TasksWithoutInputsStillSchedulable) {
  DataAwareRig rig(2);
  DataAwareScheduler scheduler(rig.dfs.get());
  scheduler.EnqueueReady(Task(1, "gen"));
  EXPECT_EQ(*scheduler.SelectTask(1), 1);
}

// Random enqueue, select and remove while replicas and staged copies churn
// underneath: node kills and drains, re-replication, deletes and re-writes
// at a new size, staging inserts, evictions, invalidation and content
// drift. The id-keyed scheduler and the path-scan oracle must agree on
// every pick and every preferred node.
void RunLockstep(uint64_t seed) {
  SimEngine engine;
  FlowNetwork net{&engine};
  constexpr int kNodes = 10;
  Cluster cluster(&engine, &net,
                  ClusterSpec::Uniform(kNodes, NodeSpec{}, 1000.0));
  DfsOptions options;
  options.replication = 2;
  options.block_size_bytes = 8 << 20;  // multi-block files
  options.seed = seed;
  Dfs dfs(&cluster, options);
  StagingCacheOptions cache_options;
  cache_options.node_budget_bytes = 48 << 20;  // small enough to evict
  StagingCache staging(cache_options);
  DataAwareScheduler scheduler(&dfs, &staging);
  PathScanLocalityOracle oracle(&dfs, &staging);

  Rng rng(seed);
  constexpr int kPaths = 16;
  auto path = [](uint64_t i) {
    return StrFormat("/lock/f%02d", static_cast<int>(i));
  };
  auto random_size = [&rng] {
    return static_cast<int64_t>(rng.UniformInt(40)) << 20;  // 0..39 MiB
  };
  auto random_node = [&rng] {
    return static_cast<NodeId>(rng.UniformInt(kNodes));
  };
  // A quarter of the paths start absent: tasks may name them before
  // they are first written.
  for (uint64_t i = 0; i < kPaths; ++i) {
    if (rng.UniformInt(4) != 0) {
      ASSERT_TRUE(dfs.IngestFile(path(i), random_size(), random_node()).ok());
    }
  }
  std::vector<TaskSpec> queued;
  TaskId next_id = 1;
  int lost_nodes = 0;
  for (int step = 0; step < 500; ++step) {
    SCOPED_TRACE(StrFormat("step %d", step));
    switch (rng.UniformInt(12)) {
      case 0:
      case 1:
      case 2: {  // a task becomes ready
        std::vector<std::string> inputs;
        for (uint64_t k = rng.UniformInt(4); k > 0; --k) {
          inputs.push_back(path(rng.UniformInt(kPaths)));
        }
        TaskSpec task = Task(next_id++, "t", inputs);
        scheduler.EnqueueReady(task);
        oracle.EnqueueReady(task);
        queued.push_back(task);
        break;
      }
      case 3:
      case 4: {  // a container is granted
        NodeId node = random_node();
        std::optional<TaskId> picked = scheduler.SelectTask(node);
        ASSERT_EQ(picked, oracle.SelectTask(node)) << "node " << node;
        if (picked.has_value()) {
          queued.erase(std::find_if(
              queued.begin(), queued.end(),
              [&picked](const TaskSpec& t) { return t.id == *picked; }));
        }
        break;
      }
      case 5: {  // workflow abort drops a queued task
        if (queued.empty()) break;
        size_t i = static_cast<size_t>(rng.UniformInt(queued.size()));
        scheduler.RemoveTask(queued[i].id);
        oracle.RemoveTask(queued[i].id);
        queued.erase(queued.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
      case 6:
      case 7:  // DataNode crash or graceful drain
        if (lost_nodes < kNodes - 3) {
          NodeId node = random_node();
          if (rng.UniformInt(2) == 0) {
            dfs.KillNode(node);
          } else {
            dfs.DecommissionNode(node);
          }
          ++lost_nodes;
        }
        break;
      case 8:
        dfs.ReReplicate();
        break;
      case 9: {  // GC delete, usually followed by a re-write (new size)
        std::string p = path(rng.UniformInt(kPaths));
        (void)dfs.Delete(p);
        if (rng.UniformInt(4) != 0) {
          ASSERT_TRUE(dfs.IngestFile(p, random_size(), random_node()).ok());
        }
        break;
      }
      case 10: {  // stage-in: fresh, or stale (content drift)
        std::string p = path(rng.UniformInt(kPaths));
        NodeId node = random_node();
        uint64_t content = dfs.ContentId(p);
        if (rng.UniformInt(3) == 0) ++content;
        staging.InsertPinned(node, dfs.Intern(p), content, random_size());
        staging.Unpin(node, dfs.Intern(p));
        break;
      }
      case 11:  // NodeManager disk loss
        staging.InvalidateNode(random_node());
        break;
    }
    ASSERT_EQ(scheduler.QueuedCount(), oracle.QueuedCount());
    for (const TaskSpec& task : queued) {
      ASSERT_EQ(scheduler.RequestFor(task).preferred_node,
                oracle.RequestFor(task).preferred_node)
          << "task " << task.id;
    }
  }
  // Drain: the remaining picks agree too.
  for (NodeId node = 0; !queued.empty(); node = (node + 1) % kNodes) {
    std::optional<TaskId> picked = scheduler.SelectTask(node);
    ASSERT_EQ(picked, oracle.SelectTask(node));
    ASSERT_TRUE(picked.has_value());
    queued.erase(std::find_if(
        queued.begin(), queued.end(),
        [&picked](const TaskSpec& t) { return t.id == *picked; }));
  }
}

TEST(DataAwareLockstepTest, MatchesPathScanOracleUnderReplicaChurn) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    RunLockstep(seed);
    if (HasFatalFailure()) return;
  }
}

// ------------------------------------------------------------ round-robin --

TEST(RoundRobinSchedulerTest, DealsTasksInTurn) {
  RoundRobinScheduler scheduler;
  std::vector<TaskSpec> tasks;
  for (TaskId id = 1; id <= 6; ++id) tasks.push_back(Task(id, "t"));
  ASSERT_TRUE(
      scheduler.BuildStaticSchedule(tasks, TaskGraph(tasks), Nodes(3)).ok());
  // Topological order == insertion order here; assignments cycle 0,1,2.
  std::map<NodeId, int> per_node;
  for (TaskId id = 1; id <= 6; ++id) {
    auto node = scheduler.AssignedNode(id);
    ASSERT_TRUE(node.ok());
    ++per_node[*node];
  }
  EXPECT_EQ(per_node.size(), 3u);
  for (const auto& [node, count] : per_node) EXPECT_EQ(count, 2);
}

TEST(RoundRobinSchedulerTest, RespectsTopologicalOrder) {
  RoundRobinScheduler scheduler;
  // 1 reads the file 2 writes.
  std::vector<TaskSpec> tasks = {Task(1, "child", {"/p"}),
                                 Task(2, "parent", {}, {"/p"})};
  ASSERT_TRUE(
      scheduler.BuildStaticSchedule(tasks, TaskGraph(tasks), Nodes(2)).ok());
  // Parent must be placed first in round-robin order -> node 0.
  EXPECT_EQ(*scheduler.AssignedNode(2), 0);
  EXPECT_EQ(*scheduler.AssignedNode(1), 1);
}

TEST(RoundRobinSchedulerTest, SelectOnlyOnAssignedNode) {
  RoundRobinScheduler scheduler;
  std::vector<TaskSpec> tasks = {Task(1, "t"), Task(2, "t")};
  ASSERT_TRUE(
      scheduler.BuildStaticSchedule(tasks, TaskGraph(tasks), Nodes(2)).ok());
  scheduler.EnqueueReady(tasks[0]);  // assigned to node 0
  EXPECT_FALSE(scheduler.SelectTask(1).has_value());
  EXPECT_EQ(*scheduler.SelectTask(0), 1);
}

TEST(RoundRobinSchedulerTest, StrictRequests) {
  RoundRobinScheduler scheduler;
  std::vector<TaskSpec> tasks = {Task(1, "t")};
  ASSERT_TRUE(
      scheduler.BuildStaticSchedule(tasks, TaskGraph(tasks), Nodes(4)).ok());
  ContainerRequest r = scheduler.RequestFor(tasks[0]);
  EXPECT_TRUE(r.strict_locality);
  EXPECT_EQ(r.preferred_node, *scheduler.AssignedNode(1));
}

TEST(RoundRobinSchedulerTest, CycleDetected) {
  RoundRobinScheduler scheduler;
  // Each task reads the file the other writes.
  std::vector<TaskSpec> tasks = {Task(1, "a", {"/b"}, {"/a"}),
                                 Task(2, "b", {"/a"}, {"/b"})};
  EXPECT_TRUE(scheduler.BuildStaticSchedule(tasks, TaskGraph(tasks), Nodes(2))
                  .IsInvalidArgument());
}

// ------------------------------------------------------------ task graph --

// One graph feeds the validator, the footprint walk and the static
// schedulers. Ids descend as declared, so visiting children by id would
// put "left" before "join"; the graph visits them in declaration order.
TEST(TaskGraphTest, OneGraphForValidatorFootprintAndRoundRobin) {
  constexpr int64_t kMiB = int64_t{1} << 20;
  std::vector<TaskSpec> tasks = {
      Task(5, "split", {"/in"}, {"/a", "/b"}),  // two files, one producer
      Task(4, "join", {"/a", "/b"}, {"/j"}),
      Task(3, "left", {"/a", "/v"}, {"/l", "/doa"}),  // nobody reads /doa
      Task(2, "sink", {"/j", "/l"}, {"/out", "/v"}),
  };
  const int64_t sizes[4][2] = {{4, 2}, {1, 0}, {1, 8}, {1, 0}};
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (size_t k = 0; k < tasks[i].outputs.size(); ++k) {
      tasks[i].outputs[k].size_bytes = sizes[i][k] * kMiB;
    }
  }
  // "sink"'s stdout is a value that "left" reads: no file, so no edge
  // (and no cycle).
  tasks[3].outputs[1].is_value = true;

  TaskGraph graph(tasks);
  EXPECT_EQ(graph.parents(0), std::vector<size_t>{});
  EXPECT_EQ(graph.parents(1), std::vector<size_t>{0});
  EXPECT_EQ(graph.parents(2), std::vector<size_t>{0});
  EXPECT_EQ(graph.parents(3), (std::vector<size_t>{1, 2}));
  EXPECT_EQ(graph.children(0), (std::vector<size_t>{1, 2}));
  EXPECT_EQ(graph.order(), (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(graph.cyclic().empty());
  EXPECT_EQ(graph.ProducerOf("/b"), std::optional<size_t>(0));
  EXPECT_FALSE(graph.ProducerOf("/v").has_value());
  EXPECT_TRUE(ValidateWorkflowTasks(tasks).ok());

  // Serial walk split, join, left, sink: /a and /b (6 MiB) are live when
  // join adds /j and retires /b (5 MiB); left's /l and the dead-on-arrival
  // /doa peak at 6 + 8 = 14 MiB. Visiting left before join would peak at
  // 15 MiB.
  FootprintEstimate est = EstimateFootprint(tasks, {"/out"}, nullptr);
  EXPECT_EQ(est.peak_bytes, 14 * kMiB);
  EXPECT_EQ(est.total_produced_bytes, 17 * kMiB);
  EXPECT_TRUE(est.exact_sizes);

  RoundRobinScheduler scheduler;
  ASSERT_TRUE(scheduler.BuildStaticSchedule(tasks, graph, Nodes(2)).ok());
  EXPECT_EQ(*scheduler.AssignedNode(5), 0);
  EXPECT_EQ(*scheduler.AssignedNode(4), 1);
  EXPECT_EQ(*scheduler.AssignedNode(3), 0);
  EXPECT_EQ(*scheduler.AssignedNode(2), 1);

  // A second writer of /j is an ambiguous producer for the validator;
  // the graph keeps the first one. (A copy: `graph` views `tasks`.)
  std::vector<TaskSpec> twice = tasks;
  twice[2].outputs.push_back(twice[1].outputs[0]);
  EXPECT_EQ(TaskGraph(twice).ProducerOf("/j"), std::optional<size_t>(1));
  EXPECT_EQ(ValidateWorkflowTasks(twice).message(),
            "output '/j' is produced by both task 4 and task 3");
}

// ------------------------------------------------------------------ HEFT --

TEST(HeftSchedulerTest, ColdEstimatesPlaceEverywhere) {
  RuntimeEstimator estimator;  // empty: all estimates 0
  HeftScheduler scheduler(&estimator);
  std::vector<TaskSpec> tasks;
  for (TaskId id = 1; id <= 4; ++id) tasks.push_back(Task(id, "t"));
  ASSERT_TRUE(
      scheduler.BuildStaticSchedule(tasks, TaskGraph(tasks), Nodes(4)).ok());
  // With zero estimates EFT is 0 everywhere; the tie-break keeps node 0 —
  // the paper's "subpar performance in the absence of provenance".
  for (TaskId id = 1; id <= 4; ++id) {
    EXPECT_TRUE(scheduler.AssignedNode(id).ok());
  }
}

TEST(HeftSchedulerTest, AvoidsSlowNodesOnceObserved) {
  RuntimeEstimator estimator;
  // Node 0 is 10x slower for signature "t".
  estimator.Observe("t", 0, 100.0);
  estimator.Observe("t", 1, 10.0);
  estimator.Observe("t", 2, 10.0);
  HeftScheduler scheduler(&estimator);
  std::vector<TaskSpec> tasks;
  for (TaskId id = 1; id <= 4; ++id) tasks.push_back(Task(id, "t"));
  ASSERT_TRUE(
      scheduler.BuildStaticSchedule(tasks, TaskGraph(tasks), Nodes(3)).ok());
  int on_slow = 0;
  for (TaskId id = 1; id <= 4; ++id) {
    if (*scheduler.AssignedNode(id) == 0) ++on_slow;
  }
  // 4 tasks, nodes 1/2 take two each (EFT 10 then 20) before node 0's 100
  // ever wins.
  EXPECT_EQ(on_slow, 0);
}

TEST(HeftSchedulerTest, UpwardRankOrdersCriticalPath) {
  RuntimeEstimator estimator;
  for (NodeId n = 0; n < 2; ++n) {
    estimator.Observe("long", n, 100.0);
    estimator.Observe("short", n, 1.0);
    estimator.Observe("sink", n, 1.0);
  }
  HeftScheduler scheduler(&estimator);
  // long -> sink, short -> sink.
  std::vector<TaskSpec> tasks = {Task(1, "long", {}, {"/l"}),
                                 Task(2, "short", {}, {"/s"}),
                                 Task(3, "sink", {"/l", "/s"})};
  ASSERT_TRUE(
      scheduler.BuildStaticSchedule(tasks, TaskGraph(tasks), Nodes(2)).ok());
  EXPECT_GT(*scheduler.UpwardRank(1), *scheduler.UpwardRank(2));
  EXPECT_GT(*scheduler.UpwardRank(1), *scheduler.UpwardRank(3));
}

TEST(HeftSchedulerTest, PerNodeQueueOrderedByRank) {
  RuntimeEstimator estimator;
  estimator.Observe("a", 0, 50.0);
  estimator.Observe("b", 0, 10.0);
  HeftScheduler scheduler(&estimator);
  std::vector<TaskSpec> tasks = {Task(1, "b"), Task(2, "a")};
  ASSERT_TRUE(
      scheduler.BuildStaticSchedule(tasks, TaskGraph(tasks), Nodes(1)).ok());
  scheduler.EnqueueReady(tasks[0]);
  scheduler.EnqueueReady(tasks[1]);
  // Higher-rank task ("a", longer) launches first despite later enqueue.
  EXPECT_EQ(*scheduler.SelectTask(0), 2);
  EXPECT_EQ(*scheduler.SelectTask(0), 1);
}

TEST(HeftSchedulerTest, IsStaticAndStrict) {
  RuntimeEstimator estimator;
  HeftScheduler scheduler(&estimator);
  EXPECT_TRUE(scheduler.IsStatic());
  std::vector<TaskSpec> tasks = {Task(1, "t")};
  ASSERT_TRUE(
      scheduler.BuildStaticSchedule(tasks, TaskGraph(tasks), Nodes(2)).ok());
  EXPECT_TRUE(scheduler.RequestFor(tasks[0]).strict_locality);
}

// --------------------------------------------------------------- factory --

TEST(SchedulerFactoryTest, ConstructsAllPolicies) {
  SimEngine engine;
  FlowNetwork net(&engine);
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(2, NodeSpec{}, 100.0));
  Dfs dfs(&cluster, DfsOptions{});
  RuntimeEstimator estimator;
  for (const char* policy : {"fcfs", "data-aware", "round-robin", "heft"}) {
    auto s = MakeScheduler(policy, &dfs, &estimator);
    ASSERT_TRUE(s.ok()) << policy;
    EXPECT_EQ((*s)->name(), policy);
  }
  EXPECT_TRUE(MakeScheduler("nope", &dfs, &estimator)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MakeScheduler("data-aware", nullptr, &estimator)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      MakeScheduler("heft", &dfs, nullptr).status().IsInvalidArgument());
}

// ------------------------------------------------------------ online MCT --

TEST(OnlineMctSchedulerTest, IsDynamicAndFifoWhenCold) {
  RuntimeEstimator estimator;
  OnlineMctScheduler scheduler(&estimator, 4);
  EXPECT_FALSE(scheduler.IsStatic());  // works with iterative workflows
  scheduler.EnqueueReady(Task(1, "a"));
  scheduler.EnqueueReady(Task(2, "b"));
  EXPECT_EQ(*scheduler.SelectTask(0), 1);
  EXPECT_EQ(*scheduler.SelectTask(3), 2);
}

TEST(OnlineMctSchedulerTest, PrefersTaskForWhichNodeIsBest) {
  RuntimeEstimator estimator;
  // Node 0 is great for "gpuish" (10 vs mean 55), mediocre for "other".
  estimator.Observe("gpuish", 0, 10.0);
  estimator.Observe("gpuish", 1, 100.0);
  estimator.Observe("other", 0, 50.0);
  estimator.Observe("other", 1, 50.0);
  OnlineMctScheduler scheduler(&estimator, 2);
  scheduler.EnqueueReady(Task(1, "other"));
  scheduler.EnqueueReady(Task(2, "gpuish"));
  EXPECT_EQ(*scheduler.SelectTask(0), 2);  // node 0's comparative edge
  EXPECT_EQ(*scheduler.SelectTask(0), 1);
}

TEST(OnlineMctSchedulerTest, UnobservedPairsExploreFirst) {
  RuntimeEstimator estimator;
  estimator.Observe("a", 0, 10.0);
  estimator.Observe("a", 1, 10.0);
  OnlineMctScheduler scheduler(&estimator, 2);
  scheduler.EnqueueReady(Task(1, "a"));
  scheduler.EnqueueReady(Task(2, "never-seen"));
  // The unobserved signature scores 0 (optimistic) and is tried first.
  EXPECT_EQ(*scheduler.SelectTask(1), 2);
}

TEST(OnlineMctSchedulerTest, RequestPrefersBestObservedNode) {
  RuntimeEstimator estimator;
  estimator.Observe("t", 0, 90.0);
  estimator.Observe("t", 2, 10.0);
  OnlineMctScheduler scheduler(&estimator, 3);
  ContainerRequest r = scheduler.RequestFor(Task(1, "t"));
  EXPECT_EQ(r.preferred_node, 2);
  EXPECT_FALSE(r.strict_locality);
}

// -------------------------------------------------------------- estimator --

TEST(RuntimeEstimatorTest, LatestObservedStrategy) {
  RuntimeEstimator estimator(EstimationStrategy::kLatestObserved);
  EXPECT_DOUBLE_EQ(estimator.Estimate("t", 0), 0.0);  // unseen -> 0
  estimator.Observe("t", 0, 10.0);
  estimator.Observe("t", 0, 30.0);
  EXPECT_DOUBLE_EQ(estimator.Estimate("t", 0), 30.0);  // latest wins
  EXPECT_TRUE(estimator.HasObservation("t", 0));
  EXPECT_FALSE(estimator.HasObservation("t", 1));
}

TEST(RuntimeEstimatorTest, RunningMeanStrategy) {
  RuntimeEstimator estimator(EstimationStrategy::kRunningMean);
  estimator.Observe("t", 0, 10.0);
  estimator.Observe("t", 0, 30.0);
  EXPECT_DOUBLE_EQ(estimator.Estimate("t", 0), 20.0);
}

TEST(RuntimeEstimatorTest, SignatureFallbackStrategy) {
  RuntimeEstimator estimator(
      EstimationStrategy::kLatestWithSignatureFallback);
  estimator.Observe("t", 0, 12.0);
  estimator.Observe("t", 1, 24.0);
  EXPECT_DOUBLE_EQ(estimator.Estimate("t", 7), 18.0);  // mean over others
  EXPECT_DOUBLE_EQ(estimator.Estimate("u", 7), 0.0);   // unknown signature
}

TEST(RuntimeEstimatorTest, MeanEstimateAcrossNodes) {
  RuntimeEstimator estimator;
  estimator.Observe("t", 0, 10.0);
  estimator.Observe("t", 1, 20.0);
  // Node 2 unseen -> 0; mean over 3 nodes = 10.
  EXPECT_DOUBLE_EQ(estimator.MeanEstimate("t", 3), 10.0);
}

TEST(RuntimeEstimatorTest, LoadFromViewIndexesTaskEnds) {
  ProvenanceManager manager;
  std::string run = manager.BeginWorkflow("wf", 0.0);
  TaskResult result;
  result.id = 1;
  result.signature = "align";
  result.node = 3;
  result.started_at = 0.0;
  result.finished_at = 42.0;
  result.status = Status::OK();
  manager.shard(run)->RecordTaskEnd(result, "node-003");
  RuntimeEstimator estimator;
  ProvenanceOracle::LoadFromView(manager.View(), &estimator);
  EXPECT_DOUBLE_EQ(estimator.Estimate("align", 3), 42.0);
  estimator.Clear();
  EXPECT_DOUBLE_EQ(estimator.Estimate("align", 3), 0.0);
}

TEST(RuntimeEstimatorTest, FailedTasksAreNotObservations) {
  ProvenanceManager manager;
  std::string run = manager.BeginWorkflow("wf", 0.0);
  TaskResult result;
  result.id = 1;
  result.signature = "align";
  result.node = 0;
  result.finished_at = 99.0;
  result.status = Status::RuntimeError("crashed");
  manager.shard(run)->RecordTaskEnd(result, "node-000");
  RuntimeEstimator estimator;
  ProvenanceOracle::LoadFromView(manager.View(), &estimator);
  EXPECT_FALSE(estimator.HasObservation("align", 0));
}

}  // namespace
}  // namespace hiway
