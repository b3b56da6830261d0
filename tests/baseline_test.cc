// Tests for the Galaxy-CloudMan-like comparator baseline. (The Tez
// comparator is Hi-WAY's own AM under FCFS with a per-task wrapping cost;
// see bench/bench_fig4_scaling_tez.cc.)

#include <gtest/gtest.h>

#include "src/baseline/cloudman.h"
#include "src/common/strings.h"
#include "src/tools/standard_tools.h"

namespace hiway {
namespace {

TaskSpec MakeTask(TaskId id, std::string tool, std::vector<std::string> in,
                  std::string out) {
  TaskSpec t;
  t.id = id;
  t.signature = tool;
  t.tool = std::move(tool);
  t.input_files = std::move(in);
  t.outputs.push_back(OutputSpec{"out", std::move(out), {}, false});
  return t;
}

// -------------------------------------------------------------- CloudMan --

struct CloudManRig {
  SimEngine engine;
  FlowNetwork net{&engine};
  std::unique_ptr<Cluster> cluster;
  ToolRegistry tools;

  explicit CloudManRig(int nodes, double ebs_mbps = 160.0) {
    NodeSpec node;
    node.cores = 8;
    node.memory_mb = 15360;
    ClusterSpec spec = ClusterSpec::Uniform(nodes, node, 1250.0);
    spec.ebs_bw_mbps = ebs_mbps;
    cluster = std::make_unique<Cluster>(&engine, &net, spec);
    RegisterStandardTools(&tools);
  }
};

TEST(CloudManTest, RunsWorkflowOverSharedVolume) {
  CloudManRig rig(2);
  CloudManEngine engine(rig.cluster.get(), &rig.tools, CloudManOptions{});
  engine.StageInput("/in", 64 << 20);
  std::vector<TaskSpec> tasks = {
      MakeTask(1, "trimmomatic", {"/in"}, "/trimmed"),
      MakeTask(2, "tophat2", {"/trimmed"}, "/hits"),
  };
  StaticWorkflowSource source("mini", tasks);
  ASSERT_TRUE(engine.Submit(&source).ok());
  auto report = engine.RunToCompletion();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->status.ok()) << report->status.ToString();
  EXPECT_EQ(report->tasks_completed, 2);
  EXPECT_TRUE(engine.volume()->Exists("/hits"));
  // All that data crossed the EBS volume.
  EXPECT_GT(rig.net.Stats(rig.cluster->ebs()).peak_rate, 0.0);
}

TEST(CloudManTest, EnforcesTwentyNodeLimit) {
  CloudManRig rig(21);
  CloudManEngine engine(rig.cluster.get(), &rig.tools, CloudManOptions{});
  std::vector<TaskSpec> tasks = {MakeTask(1, "fastqc", {}, "/r")};
  StaticWorkflowSource source("big", tasks);
  Status st = engine.Submit(&source);
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("20"), std::string::npos);
}

TEST(CloudManTest, SlotsPerNodeLimitConcurrency) {
  CloudManRig rig(1);
  CloudManOptions options;
  options.slots_per_node = 1;
  options.dispatch_overhead_s = 0.0;
  CloudManEngine engine(rig.cluster.get(), &rig.tools, options);
  engine.StageInput("/in", 8 << 20);
  // Two independent tasks on a single 1-slot node must serialise.
  std::vector<TaskSpec> tasks = {
      MakeTask(1, "fastqc", {"/in"}, "/r1"),
      MakeTask(2, "fastqc", {"/in"}, "/r2"),
  };
  StaticWorkflowSource source("pair", tasks);
  ASSERT_TRUE(engine.Submit(&source).ok());
  auto report = engine.RunToCompletion();
  ASSERT_TRUE(report.ok() && report->status.ok());
  double serial = report->Makespan();

  CloudManRig rig2(1);
  CloudManOptions options2;
  options2.slots_per_node = 2;
  options2.dispatch_overhead_s = 0.0;
  CloudManEngine engine2(rig2.cluster.get(), &rig2.tools, options2);
  engine2.StageInput("/in", 8 << 20);
  StaticWorkflowSource source2("pair", tasks);
  ASSERT_TRUE(engine2.Submit(&source2).ok());
  auto report2 = engine2.RunToCompletion();
  ASSERT_TRUE(report2.ok() && report2->status.ok());
  EXPECT_LT(report2->Makespan(), serial * 0.75);
}

TEST(CloudManTest, DeadlocksOnMissingInput) {
  CloudManRig rig(2);
  CloudManEngine engine(rig.cluster.get(), &rig.tools, CloudManOptions{});
  std::vector<TaskSpec> tasks = {MakeTask(1, "fastqc", {"/ghost"}, "/r")};
  StaticWorkflowSource source("bad", tasks);
  ASSERT_TRUE(engine.Submit(&source).ok());
  auto report = engine.RunToCompletion();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->status.IsFailedPrecondition());
}

TEST(CloudManTest, TransientStorageUsesLocalDisksAndSwitch) {
  // Footnote-4 mode: no EBS volume needed; scratch stays on local SSDs
  // and cross-node consumption crosses the switch.
  SimEngine engine;
  FlowNetwork net(&engine);
  NodeSpec node;
  node.cores = 8;
  Cluster cluster(&engine, &net,
                  ClusterSpec::Uniform(2, node, 1250.0));  // no EBS
  ToolRegistry tools;
  RegisterStandardTools(&tools);
  CloudManOptions options;
  options.transient_storage = true;
  options.dispatch_overhead_s = 0.0;
  CloudManEngine cm(&cluster, &tools, options);
  cm.StageInput("/in", 64 << 20);
  std::vector<TaskSpec> tasks = {
      MakeTask(1, "trimmomatic", {"/in"}, "/trimmed"),
      MakeTask(2, "tophat2", {"/trimmed"}, "/hits"),
  };
  StaticWorkflowSource source("mini", tasks);
  ASSERT_TRUE(cm.Submit(&source).ok());
  auto report = cm.RunToCompletion();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->status.ok()) << report->status.ToString();
  EXPECT_TRUE(cm.StorageHas("/hits"));
  EXPECT_EQ(cm.volume(), nullptr);
}

TEST(CloudManTest, TransientStorageFasterThanEbsForScratchHeavyJobs) {
  auto run = [](bool transient) -> double {
    CloudManRig rig(2, /*ebs_mbps=*/40.0);
    CloudManOptions options;
    options.transient_storage = transient;
    options.dispatch_overhead_s = 0.0;
    CloudManEngine cm(rig.cluster.get(), &rig.tools, options);
    cm.StageInput("/in", 256 << 20);
    std::vector<TaskSpec> tasks = {MakeTask(1, "tophat2", {"/in"}, "/h")};
    StaticWorkflowSource source("th", tasks);
    EXPECT_TRUE(cm.Submit(&source).ok());
    auto report = cm.RunToCompletion();
    EXPECT_TRUE(report.ok() && report->status.ok());
    return report->Makespan();
  };
  EXPECT_LT(run(true), 0.9 * run(false));
}

TEST(CloudManTest, SharedVolumeSlowerThanLocalDiskForScratchHeavyTools) {
  // The Fig. 8 mechanism in miniature: the same TopHat-like task is
  // noticeably slower when its scratch I/O crosses a constrained shared
  // volume instead of the local SSD.
  CloudManRig rig(1, /*ebs_mbps=*/40.0);
  CloudManOptions options;
  options.dispatch_overhead_s = 0.0;
  CloudManEngine cloudman(rig.cluster.get(), &rig.tools, options);
  cloudman.StageInput("/in", 256 << 20);
  std::vector<TaskSpec> tasks = {MakeTask(1, "tophat2", {"/in"}, "/hits")};
  StaticWorkflowSource source("th", tasks);
  ASSERT_TRUE(cloudman.Submit(&source).ok());
  auto cm_report = cloudman.RunToCompletion();
  ASSERT_TRUE(cm_report.ok() && cm_report->status.ok());

  // Same task through the DFS adapter (local scratch).
  SimEngine engine2;
  FlowNetwork net2(&engine2);
  NodeSpec node;
  node.cores = 8;
  Cluster cluster2(&engine2, &net2, ClusterSpec::Uniform(1, node, 1250.0));
  Dfs dfs(&cluster2, DfsOptions{});
  ASSERT_TRUE(dfs.IngestFile("/in", 256 << 20).ok());
  ToolRegistry tools2;
  RegisterStandardTools(&tools2);
  DfsStorageAdapter storage(&dfs);
  TaskExecutor executor(&cluster2, &tools2, &storage);
  double local_makespan = 0.0;
  executor.Execute(tasks[0], 0, 8, [&](TaskAttemptOutcome o) {
    ASSERT_TRUE(o.result.status.ok());
    local_makespan = o.result.Makespan();
  });
  engine2.Run();
  EXPECT_GT(cm_report->Makespan(), 1.2 * local_makespan);
}

}  // namespace
}  // namespace hiway
