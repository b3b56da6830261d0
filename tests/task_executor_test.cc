// Tests for the container-side task lifecycle and the storage adapters.

#include "src/core/task_executor.h"

#include <gtest/gtest.h>

#include "src/common/strings.h"

namespace hiway {
namespace {

struct ExecRig {
  SimEngine engine;
  FlowNetwork net{&engine};
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Dfs> dfs;
  ToolRegistry tools;
  std::unique_ptr<DfsStorageAdapter> storage;
  std::unique_ptr<TaskExecutor> executor;

  explicit ExecRig(int nodes = 2, double speed_factor_node0 = 1.0) {
    NodeSpec node;
    node.cores = 4;
    node.disk_bw_mbps = 100.0;
    node.nic_bw_mbps = 100.0;
    ClusterSpec spec = ClusterSpec::Uniform(nodes, node, 1000.0);
    spec.nodes[0].speed_factor = speed_factor_node0;
    cluster = std::make_unique<Cluster>(&engine, &net, spec);
    DfsOptions dfs_options;
    dfs_options.replication = 1;
    dfs = std::make_unique<Dfs>(cluster.get(), dfs_options);
    storage = std::make_unique<DfsStorageAdapter>(dfs.get());
    executor = std::make_unique<TaskExecutor>(cluster.get(), &tools,
                                              storage.get());
  }
};

TaskSpec SimpleTask(std::string tool, std::vector<std::string> in,
                    std::string out) {
  TaskSpec t;
  t.id = 1;
  t.signature = tool;
  t.tool = std::move(tool);
  t.input_files = std::move(in);
  if (!out.empty()) {
    t.outputs.push_back(OutputSpec{"out", std::move(out), {}, false});
  }
  return t;
}

ToolProfile FixedTool(std::string name, double fixed_s, int threads = 1) {
  ToolProfile p;
  p.name = std::move(name);
  p.fixed_cpu_seconds = fixed_s;
  p.max_threads = threads;
  p.output_ratio = 1.0;
  return p;
}

TEST(TaskExecutorTest, LifecycleStagesComputesAndPublishes) {
  ExecRig rig;
  rig.tools.Register(FixedTool("tool", 10.0));
  ASSERT_TRUE(rig.dfs->IngestFile("/in", 100 << 20, NodeId{0}).ok());
  TaskAttemptOutcome outcome;
  bool done = false;
  rig.executor->Execute(SimpleTask("tool", {"/in"}, "/out"), 0, 4,
                        [&](TaskAttemptOutcome o) {
                          outcome = std::move(o);
                          done = true;
                        });
  rig.engine.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.result.status.ok());
  // stage-in: 100 MB at 100 MB/s = 1 s; compute 10 s; stage-out ~1 s.
  EXPECT_NEAR(outcome.result.stage_in_seconds, 1.0, 0.01);
  EXPECT_NEAR(outcome.result.Makespan(), 12.0, 0.1);
  EXPECT_TRUE(rig.dfs->Exists("/out"));
  ASSERT_EQ(outcome.result.produced_files.size(), 1u);
  EXPECT_EQ(outcome.result.produced_files[0].second, 100 << 20);  // ratio 1
  // Transfers recorded for provenance: one in, one out.
  ASSERT_EQ(outcome.transfers.size(), 2u);
  EXPECT_TRUE(outcome.transfers[0].stage_in);
  EXPECT_FALSE(outcome.transfers[1].stage_in);
}

TEST(TaskExecutorTest, ThreadCapAndContainerSizeGovernComputeRate) {
  ExecRig rig;
  ToolProfile p = FixedTool("mt", 0.0, 8);
  p.cpu_seconds_per_mb = 1.0;  // 10 MB input -> 10 core-seconds
  rig.tools.Register(p);
  ASSERT_TRUE(rig.dfs->IngestFile("/in", 10 << 20, NodeId{0}).ok());
  double makespan = 0.0;
  rig.executor->Execute(SimpleTask("mt", {"/in"}, "/out"), 0, 2,
                        [&](TaskAttemptOutcome o) {
                          makespan = o.result.Makespan();
                        });
  rig.engine.Run();
  // Container has 2 vcores though the tool could use 8: compute = 5 s
  // (+ ~0.1 stage-in + ~0.2 stage-out).
  EXPECT_NEAR(makespan, 5.0 + 0.1 + 0.1, 0.25);
}

// A registered profile with max_threads <= 0 used to yield a CPU flow
// capped at rate 0 that never completed; it now runs single-threaded.
TEST(TaskExecutorTest, NonPositiveMaxThreadsRunsOnOneThread) {
  for (int threads : {0, -3}) {
    ExecRig rig;
    rig.tools.Register(FixedTool("broken", 10.0, threads));
    ASSERT_TRUE(rig.dfs->IngestFile("/in", 1 << 20, NodeId{0}).ok());
    bool done = false;
    double makespan = 0.0;
    rig.executor->Execute(SimpleTask("broken", {"/in"}, "/out"), 0, 4,
                          [&](TaskAttemptOutcome o) {
                            EXPECT_TRUE(o.result.status.ok());
                            makespan = o.result.Makespan();
                            done = true;
                          });
    rig.engine.Run();
    ASSERT_TRUE(done) << "max_threads=" << threads;
    EXPECT_NEAR(makespan, 10.0, 0.1) << "max_threads=" << threads;
  }
}

TEST(TaskExecutorTest, SlowNodesTakeProportionallyLonger) {
  ExecRig slow(2, /*speed_factor_node0=*/0.5);
  slow.tools.Register(FixedTool("tool", 10.0));
  double on_slow = 0.0, on_fast = 0.0;
  TaskSpec t1 = SimpleTask("tool", {}, "/out1");
  TaskSpec t2 = SimpleTask("tool", {}, "/out2");
  t2.id = 2;
  slow.executor->Execute(t1, 0, 1, [&](TaskAttemptOutcome o) {
    on_slow = o.result.Makespan();
  });
  slow.executor->Execute(t2, 1, 1, [&](TaskAttemptOutcome o) {
    on_fast = o.result.Makespan();
  });
  slow.engine.Run();
  EXPECT_GT(on_slow, 1.8 * on_fast);
}

TEST(TaskExecutorTest, OutputSizesFollowProfileRatios) {
  ExecRig rig;
  ToolProfile p = FixedTool("ratio-tool", 1.0);
  p.output_ratio = 0.5;
  rig.tools.Register(p);
  ASSERT_TRUE(rig.dfs->IngestFile("/in", 100 << 20, NodeId{0}).ok());
  int64_t produced = 0;
  rig.executor->Execute(SimpleTask("ratio-tool", {"/in"}, "/out"), 0, 1,
                        [&](TaskAttemptOutcome o) {
                          produced = o.result.produced_files[0].second;
                        });
  rig.engine.Run();
  EXPECT_EQ(produced, 50 << 20);
}

TEST(TaskExecutorTest, ParamOverridesOutputRatio) {
  ExecRig rig;
  ToolProfile p = FixedTool("cram-tool", 1.0);
  p.output_ratio = 0.35;
  rig.tools.Register(p);
  ASSERT_TRUE(rig.dfs->IngestFile("/in", 100 << 20, NodeId{0}).ok());
  TaskSpec task = SimpleTask("cram-tool", {"/in"}, "/out");
  task.params["output_ratio"] = "0.12";
  int64_t produced = 0;
  rig.executor->Execute(task, 0, 1, [&](TaskAttemptOutcome o) {
    produced = o.result.produced_files[0].second;
  });
  rig.engine.Run();
  EXPECT_EQ(produced, 12 << 20);
}

TEST(TaskExecutorTest, ExplicitOutputSizeWins) {
  ExecRig rig;
  rig.tools.Register(FixedTool("t", 1.0));
  ASSERT_TRUE(rig.dfs->IngestFile("/in", 100 << 20, NodeId{0}).ok());
  TaskSpec task = SimpleTask("t", {"/in"}, "/out");
  task.outputs[0].size_bytes = 4242;
  int64_t produced = 0;
  rig.executor->Execute(task, 0, 1, [&](TaskAttemptOutcome o) {
    produced = o.result.produced_files[0].second;
  });
  rig.engine.Run();
  EXPECT_EQ(produced, 4242);
}

TEST(TaskExecutorTest, StdoutFunctionDrivesValueOutputs) {
  ExecRig rig;
  ToolProfile p = FixedTool("decider", 1.0);
  int invocations_seen = -1;
  p.stdout_fn = [&](const ToolInvocation& inv) {
    invocations_seen = inv.prior_invocations;
    return std::string("verdict");
  };
  rig.tools.Register(p);
  TaskSpec task = SimpleTask("decider", {}, "");
  task.outputs.push_back(OutputSpec{"v", "", {}, true});  // value output
  std::string stdout_value;
  rig.executor->Execute(task, 0, 1, [&](TaskAttemptOutcome o) {
    stdout_value = o.result.stdout_value;
  });
  rig.engine.Run();
  EXPECT_EQ(stdout_value, "verdict");
  EXPECT_EQ(invocations_seen, 0);
  // Second invocation sees the bumped counter.
  TaskSpec again = task;
  again.id = 2;
  rig.executor->Execute(again, 0, 1, [&](TaskAttemptOutcome) {});
  rig.engine.Run();
  EXPECT_EQ(invocations_seen, 1);
}

TEST(TaskExecutorTest, MissingToolFailsAttempt) {
  ExecRig rig;
  Status status = Status::OK();
  rig.executor->Execute(SimpleTask("unregistered", {}, "/out"), 0, 1,
                        [&](TaskAttemptOutcome o) {
                          status = o.result.status;
                        });
  rig.engine.Run();
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_FALSE(rig.dfs->Exists("/out"));
}

TEST(TaskExecutorTest, MissingInputFailsAttempt) {
  ExecRig rig;
  rig.tools.Register(FixedTool("t", 1.0));
  Status status = Status::OK();
  rig.executor->Execute(SimpleTask("t", {"/nope"}, "/out"), 0, 1,
                        [&](TaskAttemptOutcome o) {
                          status = o.result.status;
                        });
  rig.engine.Run();
  EXPECT_TRUE(status.IsNotFound());
}

TEST(TaskExecutorTest, InjectedFailuresBurnRuntime) {
  ExecRig rig;
  ToolProfile p = FixedTool("flaky", 10.0);
  p.failure_probability = 1.0;  // always fails
  rig.tools.Register(p);
  Status status = Status::OK();
  double makespan = 0.0;
  rig.executor->Execute(SimpleTask("flaky", {}, "/out"), 0, 1,
                        [&](TaskAttemptOutcome o) {
                          status = o.result.status;
                          makespan = o.result.Makespan();
                        });
  rig.engine.Run();
  EXPECT_TRUE(status.IsRuntimeError());
  EXPECT_GE(makespan, 10.0);  // the crash comes after the compute burn
}

TEST(TaskExecutorTest, ScratchIoExtendsRuntime) {
  ExecRig rig;
  ToolProfile with_scratch = FixedTool("scratchy", 5.0);
  with_scratch.scratch_mb_per_input_mb = 10.0;  // 100 MB in -> 1000 MB
  rig.tools.Register(with_scratch);
  ASSERT_TRUE(rig.dfs->IngestFile("/in", 100 << 20, NodeId{0}).ok());
  double makespan = 0.0;
  rig.executor->Execute(SimpleTask("scratchy", {"/in"}, "/out"), 0, 1,
                        [&](TaskAttemptOutcome o) {
                          makespan = o.result.Makespan();
                        });
  rig.engine.Run();
  // 1 stage-in + 5 compute + 10 scratch (1000 MB at 100 MB/s) + ~1 out.
  EXPECT_NEAR(makespan, 17.0, 0.5);
}

// ------------------------------------------- SharedVolumeStorageAdapter --

TEST(SharedVolumeAdapterTest, AllTrafficCrossesEbs) {
  SimEngine engine;
  FlowNetwork net(&engine);
  NodeSpec node;
  node.cores = 4;
  node.nic_bw_mbps = 1000.0;
  ClusterSpec spec = ClusterSpec::Uniform(2, node, 10000.0);
  spec.ebs_bw_mbps = 100.0;
  Cluster cluster(&engine, &net, spec);
  SharedVolumeStorageAdapter volume(&cluster, /*client_mbps=*/50.0);
  volume.AddFile("/in", 100 << 20);
  EXPECT_TRUE(volume.Exists("/in"));
  EXPECT_EQ(*volume.FileSize("/in"), 100 << 20);
  EXPECT_FALSE(volume.Exists("/missing"));
  EXPECT_TRUE(volume.FileSize("/missing").status().IsNotFound());

  double t = -1;
  volume.StageIn("/in", 0, [&](Status st, int64_t bytes, double seconds) {
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(bytes, 100 << 20);
    t = seconds;
  });
  engine.Run();
  // Client cap 50 MB/s, not the 1000 MB/s NIC: 2 s.
  EXPECT_NEAR(t, 2.0, 0.01);
  EXPECT_GT(net.Stats(cluster.ebs()).peak_rate, 0.0);
}

TEST(SharedVolumeAdapterTest, ConcurrentClientsContendOnVolume) {
  SimEngine engine;
  FlowNetwork net(&engine);
  ClusterSpec spec = ClusterSpec::Uniform(4, NodeSpec{}, 10000.0);
  spec.ebs_bw_mbps = 100.0;
  Cluster cluster(&engine, &net, spec);
  SharedVolumeStorageAdapter volume(&cluster, /*client_mbps=*/50.0);
  for (int i = 0; i < 4; ++i) {
    volume.AddFile(StrFormat("/f%d", i), 100 << 20);
  }
  int done = 0;
  double last = 0.0;
  for (int i = 0; i < 4; ++i) {
    volume.StageIn(StrFormat("/f%d", i), i,
                   [&](Status st, int64_t, double) {
                     EXPECT_TRUE(st.ok());
                     ++done;
                     last = engine.Now();
                   });
  }
  engine.Run();
  EXPECT_EQ(done, 4);
  // 4 clients want 50 each but share a 100 MB/s volume: 25 each -> 4 s.
  EXPECT_NEAR(last, 4.0, 0.05);
}

}  // namespace
}  // namespace hiway
