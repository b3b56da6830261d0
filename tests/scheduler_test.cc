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

// One data-aware scheduler, the path-scan oracle it must agree with, and
// the tasks both hold.
struct LockstepQueue {
  std::unique_ptr<DataAwareScheduler> scheduler;
  std::unique_ptr<PathScanLocalityOracle> oracle;
  std::vector<TaskSpec> queued;

  LockstepQueue(Dfs* dfs, StagingCache* staging)
      : scheduler(std::make_unique<DataAwareScheduler>(dfs, staging)),
        oracle(std::make_unique<PathScanLocalityOracle>(dfs, staging)) {}

  void Enqueue(const TaskSpec& task) {
    scheduler->EnqueueReady(task);
    oracle->EnqueueReady(task);
    queued.push_back(task);
  }

  // A container on `node`: both pick the same task (or none).
  void Grant(NodeId node) {
    std::optional<TaskId> picked = scheduler->SelectTask(node);
    ASSERT_EQ(picked, oracle->SelectTask(node)) << "node " << node;
    if (picked.has_value()) {
      queued.erase(std::find_if(
          queued.begin(), queued.end(),
          [&picked](const TaskSpec& t) { return t.id == *picked; }));
    }
  }

  void Remove(size_t i) {
    scheduler->RemoveTask(queued[i].id);
    oracle->RemoveTask(queued[i].id);
    queued.erase(queued.begin() + static_cast<ptrdiff_t>(i));
  }

  // Same queue length, and the same preferred node for every task.
  void ExpectAgree() {
    ASSERT_EQ(scheduler->QueuedCount(), oracle->QueuedCount());
    for (const TaskSpec& task : queued) {
      ASSERT_EQ(scheduler->RequestFor(task).preferred_node,
                oracle->RequestFor(task).preferred_node)
          << "task " << task.id;
    }
  }
};

// Random enqueue, select and remove while replicas and staged copies churn
// underneath: node kills and drains, re-replication, deletes and re-writes
// at a new size, staging inserts, evictions, invalidation, migration and
// content drift, and nodes joining. Two schedulers share the DFS and the
// staging cache, each checked against its own oracle; the second is
// destroyed halfway, and the files it watched keep churning after it. The
// index and the path-scan oracle must agree on every pick and every
// preferred node.
void RunLockstep(uint64_t seed) {
  SimEngine engine;
  FlowNetwork net{&engine};
  constexpr int kNodes = 10;
  constexpr int kMaxNodes = 13;
  constexpr int kSteps = 600;
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
  std::vector<std::unique_ptr<LockstepQueue>> queues;
  queues.push_back(std::make_unique<LockstepQueue>(&dfs, &staging));
  queues.push_back(std::make_unique<LockstepQueue>(&dfs, &staging));

  Rng rng(seed);
  constexpr int kPaths = 16;
  auto path = [](uint64_t i) {
    return StrFormat("/lock/f%02d", static_cast<int>(i));
  };
  auto random_size = [&rng] {
    return static_cast<int64_t>(rng.UniformInt(40)) << 20;  // 0..39 MiB
  };
  auto random_node = [&rng, &cluster] {
    return static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(cluster.num_nodes())));
  };
  auto random_queue = [&rng, &queues]() -> LockstepQueue& {
    return *queues[static_cast<size_t>(rng.UniformInt(queues.size()))];
  };
  // A quarter of the paths start absent: tasks may name them before
  // they are first written.
  for (uint64_t i = 0; i < kPaths; ++i) {
    if (rng.UniformInt(4) != 0) {
      ASSERT_TRUE(dfs.IngestFile(path(i), random_size(), random_node()).ok());
    }
  }
  TaskId next_id = 1;
  // Up to three inputs; one in five tasks lists an input twice.
  auto random_task = [&] {
    std::vector<std::string> inputs;
    for (uint64_t k = rng.UniformInt(4); k > 0; --k) {
      inputs.push_back(path(rng.UniformInt(kPaths)));
    }
    if (!inputs.empty() && rng.UniformInt(5) == 0) {
      inputs.push_back(inputs[rng.UniformInt(inputs.size())]);
    }
    return Task(next_id++, "t", inputs);
  };
  int lost_nodes = 0;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(StrFormat("step %d", step));
    if (step == kSteps / 2) {
      // The second scheduler goes away with tasks still queued; its
      // watches must go with it.
      queues.pop_back();
    }
    if (step == kSteps / 4) {
      // A long queue: candidate lists grow past 100 and compact as
      // the picks drain them.
      for (int i = 0; i < 110; ++i) random_queue().Enqueue(random_task());
    }
    switch (rng.UniformInt(16)) {
      case 0:
      case 1:
      case 2:  // a task becomes ready
        random_queue().Enqueue(random_task());
        break;
      case 3:
      case 4:  // a container is granted
        random_queue().Grant(random_node());
        break;
      case 5: {  // workflow abort drops a queued task
        LockstepQueue& q = random_queue();
        if (q.queued.empty()) break;
        q.Remove(static_cast<size_t>(rng.UniformInt(q.queued.size())));
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
      case 12: {  // graceful drain moves staged copies to other nodes
        std::vector<NodeId> targets;
        for (uint64_t k = 1 + rng.UniformInt(3); k > 0; --k) {
          targets.push_back(random_node());
        }
        staging.MigrateNode(random_node(), targets);
        break;
      }
      case 13:  // a node joins; later placements and stage-ins reach it
        if (cluster.num_nodes() < kMaxNodes) cluster.AddNode(NodeSpec{});
        break;
      case 14:  // a burst of ready tasks
        for (int i = 0; i < 8; ++i) random_queue().Enqueue(random_task());
        break;
      case 15: {  // a burst of grants
        LockstepQueue& q = random_queue();
        for (int i = 0; i < 12; ++i) {
          q.Grant(random_node());
          if (::testing::Test::HasFatalFailure()) return;
        }
        break;
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
    for (const auto& q : queues) {
      q->ExpectAgree();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // Drain: the remaining picks agree too.
  LockstepQueue& q = *queues.front();
  for (NodeId node = 0; !q.queued.empty();
       node = (node + 1) % cluster.num_nodes()) {
    size_t before = q.queued.size();
    q.Grant(node);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_EQ(q.queued.size(), before - 1);
  }
}

TEST(DataAwareLockstepTest, MatchesPathScanOracleUnderReplicaChurn) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    RunLockstep(seed);
    if (HasFatalFailure()) return;
  }
}

// The scan's first visit, the queue head, becomes its best even at
// fraction 0, and a later task must beat it by more than 1e-12. A 1-byte
// staged copy of a 2 TiB single-block file is a candidate on its node at
// a fraction of about 4.5e-13, and must still lose to the head; so must
// a 3-byte copy when the head is that 1-byte candidate.
TEST(DataAwareLockstepTest, HeadBeatsCandidateWithinEpsilon) {
  SimEngine engine;
  FlowNetwork net{&engine};
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(3, NodeSpec{}, 1000.0));
  DfsOptions options;
  options.replication = 1;
  options.block_size_bytes = int64_t{4} << 40;
  Dfs dfs(&cluster, options);
  StagingCache staging;
  const int64_t kHuge = int64_t{2} << 40;
  ASSERT_TRUE(dfs.IngestFile("/huge", kHuge, NodeId{0}).ok());
  ASSERT_TRUE(dfs.IngestFile("/small", 1 << 20, NodeId{0}).ok());
  staging.InsertPinned(2, dfs.Intern("/huge"), dfs.ContentId("/huge"), 1);
  DataAwareScheduler scheduler(&dfs, &staging);
  PathScanLocalityOracle oracle(&dfs, &staging);
  for (const TaskSpec& task :
       {Task(1, "head", {"/small"}), Task(2, "tiny", {"/huge"})}) {
    scheduler.EnqueueReady(task);
    oracle.EnqueueReady(task);
  }
  EXPECT_EQ(scheduler.RequestFor(Task(2, "tiny", {"/huge"})).preferred_node,
            0);
  std::optional<TaskId> picked = scheduler.SelectTask(2);
  EXPECT_EQ(picked, oracle.SelectTask(2));
  EXPECT_EQ(picked, std::optional<TaskId>(1));

  // Now the head itself sits at about 4.5e-13. A task behind it at
  // about 1.4e-12 clears 1e-12 but not head + 1e-12: the head still
  // wins, which only a pick seeded with the head's fraction gets right.
  ASSERT_TRUE(dfs.IngestFile("/huge2", kHuge, NodeId{0}).ok());
  staging.InsertPinned(2, dfs.Intern("/huge2"), dfs.ContentId("/huge2"), 3);
  TaskSpec behind = Task(3, "less-tiny", {"/huge2"});
  scheduler.EnqueueReady(behind);
  oracle.EnqueueReady(behind);
  picked = scheduler.SelectTask(2);
  EXPECT_EQ(picked, oracle.SelectTask(2));
  EXPECT_EQ(picked, std::optional<TaskId>(2));
  EXPECT_EQ(scheduler.SelectTask(2), std::optional<TaskId>(3));
}

// Bytes on a node count only against input bytes that exist: a staged
// copy of an empty file (local > 0, total 0) and of a deleted one make no
// candidate, so the head wins.
TEST(DataAwareLockstepTest, StagedCopiesWithoutInputBytesMakeNoCandidate) {
  SimEngine engine;
  FlowNetwork net{&engine};
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(3, NodeSpec{}, 1000.0));
  DfsOptions options;
  options.replication = 1;
  Dfs dfs(&cluster, options);
  StagingCache staging;
  ASSERT_TRUE(dfs.IngestFile("/empty", 0, NodeId{0}).ok());
  ASSERT_TRUE(dfs.IngestFile("/gone", 4 << 20, NodeId{2}).ok());
  ASSERT_TRUE(dfs.IngestFile("/head", 4 << 20, NodeId{0}).ok());
  staging.InsertPinned(1, dfs.Intern("/empty"), dfs.ContentId("/empty"),
                       8 << 20);
  staging.InsertPinned(1, dfs.Intern("/gone"), dfs.ContentId("/gone"),
                       4 << 20);
  DataAwareScheduler scheduler(&dfs, &staging);
  PathScanLocalityOracle oracle(&dfs, &staging);
  std::vector<TaskSpec> tasks = {Task(1, "head", {"/head"}),
                                 Task(2, "empty", {"/empty", "/empty"}),
                                 Task(3, "gone", {"/gone"})};
  for (const TaskSpec& task : tasks) {
    scheduler.EnqueueReady(task);
    oracle.EnqueueReady(task);
  }
  // Task 3's input is as large on node 1 (staged) as on node 2
  // (replica): the lower id is preferred until the input goes away.
  EXPECT_EQ(scheduler.RequestFor(tasks[2]).preferred_node, 1);
  ASSERT_TRUE(dfs.Delete("/gone").ok());
  for (const TaskSpec& task : tasks) {
    EXPECT_EQ(scheduler.RequestFor(task).preferred_node,
              oracle.RequestFor(task).preferred_node)
        << "task " << task.id;
  }
  std::optional<TaskId> picked = scheduler.SelectTask(1);
  EXPECT_EQ(picked, oracle.SelectTask(1));
  EXPECT_EQ(picked, std::optional<TaskId>(1));
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
