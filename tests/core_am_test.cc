// End-to-end tests of the Hi-WAY AM driver on small simulated clusters.

#include "src/core/hiway_am.h"

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/obs/tracer.h"
#include "src/tools/standard_tools.h"

namespace hiway {
namespace {

/// Everything a small workflow run needs, wired together.
struct TestRig {
  SimEngine engine;
  FlowNetwork net{&engine};
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Dfs> dfs;
  std::unique_ptr<ResourceManager> rm;
  ToolRegistry tools;
  ProvenanceManager provenance;
  RuntimeEstimator estimator;

  explicit TestRig(int nodes, int cores = 4) {
    NodeSpec node;
    node.cores = cores;
    node.memory_mb = 8192;
    ClusterSpec spec = ClusterSpec::Uniform(nodes, node, 1250.0);
    cluster = std::make_unique<Cluster>(&engine, &net, spec);
    DfsOptions dfs_opts;
    dfs_opts.replication = 2;
    dfs = std::make_unique<Dfs>(cluster.get(), dfs_opts);
    rm = std::make_unique<ResourceManager>(cluster.get(), YarnOptions());
    RegisterStandardTools(&tools);
  }

  HiWayAm MakeAm(HiWayOptions options = HiWayOptions()) {
    return HiWayAm(cluster.get(), rm.get(), dfs.get(), &tools, &provenance,
                   &estimator, options);
  }
};

TaskSpec MakeTask(TaskId id, std::string tool, std::vector<std::string> in,
                  std::vector<std::string> out) {
  TaskSpec t;
  t.id = id;
  t.signature = tool;
  t.tool = std::move(tool);
  t.command = t.signature + " ...";
  t.input_files = std::move(in);
  for (std::string& path : out) {
    OutputSpec o;
    o.param = "out";
    o.path = std::move(path);
    t.outputs.push_back(std::move(o));
  }
  return t;
}

TEST(HiWayAmTest, RunsLinearPipeline) {
  TestRig rig(4);
  ASSERT_TRUE(rig.dfs->IngestFile("/in/reads.fq", 64 << 20).ok());

  std::vector<TaskSpec> tasks;
  tasks.push_back(MakeTask(1, "bowtie2", {"/in/reads.fq"}, {"/out/a.sam"}));
  tasks.push_back(MakeTask(2, "samtools-sort", {"/out/a.sam"}, {"/out/a.bam"}));
  tasks.push_back(MakeTask(3, "varscan", {"/out/a.bam"}, {"/out/a.vcf"}));
  StaticWorkflowSource source("pipeline", tasks, {"/out/a.vcf"});

  FcfsScheduler scheduler;
  HiWayAm am = rig.MakeAm();
  ASSERT_TRUE(am.Submit(&source, &scheduler).ok());
  auto report = am.RunToCompletion();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->status.ok()) << report->status.ToString();
  EXPECT_EQ(report->tasks_completed, 3);
  EXPECT_GT(report->Makespan(), 0.0);
  // All outputs exist in DFS.
  EXPECT_TRUE(rig.dfs->Exists("/out/a.sam"));
  EXPECT_TRUE(rig.dfs->Exists("/out/a.bam"));
  EXPECT_TRUE(rig.dfs->Exists("/out/a.vcf"));
}

TEST(HiWayAmTest, ParallelFanOutUsesAllNodes) {
  TestRig rig(4);
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 8; ++i) {
    std::string in = StrFormat("/in/chunk%d.fq", i);
    ASSERT_TRUE(rig.dfs->IngestFile(in, 32 << 20).ok());
    tasks.push_back(
        MakeTask(i + 1, "bowtie2", {in}, {StrFormat("/out/%d.sam", i)}));
  }
  StaticWorkflowSource source("fanout", tasks);
  FcfsScheduler scheduler;
  HiWayAm am = rig.MakeAm();
  ASSERT_TRUE(am.Submit(&source, &scheduler).ok());
  auto report = am.RunToCompletion();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->status.ok()) << report->status.ToString();
  EXPECT_EQ(report->tasks_completed, 8);
  // Provenance recorded tasks on more than one node.
  std::set<int32_t> nodes;
  for (const auto& ev : rig.provenance.Events()) {
    if (ev.type == ProvenanceEventType::kTaskEnd) nodes.insert(ev.node);
  }
  EXPECT_GT(nodes.size(), 1u);
}

TEST(HiWayAmTest, MissingInputDeadlocksWithDiagnostic) {
  TestRig rig(2);
  std::vector<TaskSpec> tasks;
  tasks.push_back(MakeTask(1, "bowtie2", {"/in/never-created.fq"},
                           {"/out/x.sam"}));
  StaticWorkflowSource source("deadlock", tasks);
  FcfsScheduler scheduler;
  HiWayAm am = rig.MakeAm();
  ASSERT_TRUE(am.Submit(&source, &scheduler).ok());
  auto report = am.RunToCompletion();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->status.IsFailedPrecondition());
  EXPECT_NE(report->status.message().find("never-created"),
            std::string::npos);
}

TEST(HiWayAmTest, DeadlockDiagnosticNamesEachMissingPathOnce) {
  // `ghosts` distinct missing files shared round-robin by 500 waiting
  // tasks: each path is named once, and the message stays bounded.
  auto deadlock_message = [](int ghosts) {
    TestRig rig(2);
    std::vector<TaskSpec> tasks;
    for (int i = 0; i < 500; ++i) {
      tasks.push_back(MakeTask(i + 1, "bowtie2",
                               {StrFormat("/in/ghost%d.fq", i % ghosts)},
                               {StrFormat("/out/%d.sam", i)}));
    }
    StaticWorkflowSource source("deadlock", tasks);
    FcfsScheduler scheduler;
    HiWayAm am = rig.MakeAm();
    EXPECT_TRUE(am.Submit(&source, &scheduler).ok());
    auto report = am.RunToCompletion();
    EXPECT_TRUE(report.ok() && report->status.IsFailedPrecondition());
    return report->status.message();
  };
  std::string one = deadlock_message(1);
  size_t first = one.find("/in/ghost0.fq");
  ASSERT_NE(first, std::string::npos) << one;
  EXPECT_EQ(one.find("/in/ghost0.fq", first + 1), std::string::npos) << one;
  EXPECT_LT(one.size(), 300u) << one;

  std::string many = deadlock_message(500);
  EXPECT_NE(many.find("/in/ghost0.fq"), std::string::npos) << many;
  EXPECT_NE(many.find("more)"), std::string::npos) << many;
  EXPECT_LT(many.size(), 300u) << many;
}

TEST(HiWayAmTest, SubmitRejectsNonPositiveContainerSizing) {
  const std::pair<int, double> sizes[] = {
      {0, 1024.0}, {-2, 1024.0}, {1, 0.0}, {1, -5.0}};
  for (const auto& [vcores, memory_mb] : sizes) {
    TestRig rig(2);
    StaticWorkflowSource source(
        "sizing", {MakeTask(1, "bowtie2", {"/in/a.fq"}, {"/out/a.sam"})});
    FcfsScheduler scheduler;
    HiWayOptions options;
    options.container_vcores = vcores;
    options.container_memory_mb = memory_mb;
    HiWayAm am = rig.MakeAm(options);
    Status st = am.Submit(&source, &scheduler);
    EXPECT_TRUE(st.IsInvalidArgument())
        << vcores << " vcores / " << memory_mb << " MB: " << st.ToString();
    // Rejected before registering: no AM container was allocated.
    EXPECT_EQ(rig.rm->running_containers(), 0);
  }
}

TEST(HiWayAmTest, OversizedContainerFailsInsteadOfHanging) {
  struct Case {
    int default_vcores;
    double default_memory_mb;
    int task_vcores;  // per-task override; 0 = AM default
  };
  // Nodes have 2 cores and 8192 MB.
  const Case cases[] = {{4, 1024.0, 0}, {1, 100000.0, 0}, {1, 1024.0, 3}};
  for (const Case& c : cases) {
    TestRig rig(2, /*cores=*/2);
    ASSERT_TRUE(rig.dfs->IngestFile("/in/a.fq", 1 << 20).ok());
    TaskSpec task = MakeTask(7, "bowtie2", {"/in/a.fq"}, {"/out/a.sam"});
    task.vcores = c.task_vcores;
    StaticWorkflowSource source("oversized", {task});
    FcfsScheduler scheduler;
    HiWayOptions options;
    options.container_vcores = c.default_vcores;
    options.container_memory_mb = c.default_memory_mb;
    HiWayAm am = rig.MakeAm(options);
    EXPECT_TRUE(am.Submit(&source, &scheduler).IsResourceExhausted());
    // An unplaceable request must fail the workflow at once, not leave
    // it waiting: the run is bounded in virtual time to prove it.
    rig.engine.RunUntil(3600.0);
    ASSERT_TRUE(am.finished());
    const Status& status = am.report().status;
    EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
    EXPECT_NE(status.message().find("task 7 ('bowtie2')"), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("2 vcores / 8192 MB"), std::string::npos)
        << status.ToString();
    EXPECT_EQ(rig.rm->running_containers(), 0);
  }
}

TEST(HiWayAmTest, RequestFittingNoSingleNodeFailsInsteadOfHanging) {
  // One 8-vcore / 2 GB node and one 2-vcore / 16 GB node: an 8-vcore /
  // 8 GB container is within the largest vcores and the largest memory,
  // but no single node can host it.
  SimEngine engine;
  FlowNetwork net(&engine);
  ClusterSpec spec;
  NodeSpec wide;
  wide.cores = 8;
  wide.memory_mb = 2048;
  NodeSpec tall;
  tall.cores = 2;
  tall.memory_mb = 16384;
  spec.nodes = {wide, tall};
  Cluster cluster(&engine, &net, spec);
  DfsOptions dfs_opts;
  dfs_opts.replication = 1;
  Dfs dfs(&cluster, dfs_opts);
  ResourceManager rm(&cluster, YarnOptions());
  ToolRegistry tools;
  RegisterStandardTools(&tools);
  ProvenanceManager provenance;
  RuntimeEstimator estimator;
  ASSERT_TRUE(dfs.IngestFile("/in/a.fq", 1 << 20).ok());
  StaticWorkflowSource source(
      "misfit", {MakeTask(7, "bowtie2", {"/in/a.fq"}, {"/out/a.sam"})});
  FcfsScheduler scheduler;
  HiWayOptions options;
  options.container_vcores = 8;
  options.container_memory_mb = 8192;
  HiWayAm am(&cluster, &rm, &dfs, &tools, &provenance, &estimator, options);
  EXPECT_TRUE(am.Submit(&source, &scheduler).IsResourceExhausted());
  engine.RunUntil(3600.0);
  ASSERT_TRUE(am.finished());
  const Status& status = am.report().status;
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
  EXPECT_NE(status.message().find("task 7 ('bowtie2')"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("8 vcores / 2048 MB"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("2 vcores / 16384 MB"), std::string::npos)
      << status.ToString();

  // A container that only the 8-vcore node can host still runs.
  SimEngine engine2;
  FlowNetwork net2(&engine2);
  Cluster cluster2(&engine2, &net2, spec);
  Dfs dfs2(&cluster2, dfs_opts);
  ResourceManager rm2(&cluster2, YarnOptions());
  ASSERT_TRUE(dfs2.IngestFile("/in/a.fq", 1 << 20).ok());
  StaticWorkflowSource source2(
      "fits", {MakeTask(7, "bowtie2", {"/in/a.fq"}, {"/out/a.sam"})});
  FcfsScheduler scheduler2;
  options.container_vcores = 4;
  options.container_memory_mb = 1024;
  HiWayAm fits(&cluster2, &rm2, &dfs2, &tools, &provenance, &estimator,
               options);
  ASSERT_TRUE(fits.Submit(&source2, &scheduler2).ok());
  engine2.RunUntil(3600.0);
  ASSERT_TRUE(fits.finished());
  EXPECT_TRUE(fits.report().status.ok()) << fits.report().status.ToString();
}

TEST(HiWayAmTest, EmptyWorkflowFinishesImmediately) {
  TestRig rig(2);
  StaticWorkflowSource source("empty", {});
  FcfsScheduler scheduler;
  HiWayAm am = rig.MakeAm();
  ASSERT_TRUE(am.Submit(&source, &scheduler).ok());
  auto report = am.RunToCompletion();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->status.ok());
  EXPECT_EQ(report->tasks_completed, 0);
}

TEST(HiWayAmTest, RetriesTransientToolFailuresOnOtherNodes) {
  TestRig rig(4);
  ASSERT_TRUE(rig.dfs->IngestFile("/in/x", 8 << 20).ok());
  ToolProfile flaky;
  flaky.name = "flaky";
  flaky.fixed_cpu_seconds = 5.0;
  flaky.failure_probability = 0.7;
  rig.tools.Register(flaky);

  std::vector<TaskSpec> tasks;
  tasks.push_back(MakeTask(1, "flaky", {"/in/x"}, {"/out/y"}));
  StaticWorkflowSource source("flaky-wf", tasks);
  FcfsScheduler scheduler;
  HiWayOptions options;
  options.task_retry.max_attempts = 50;  // practically always succeeds eventually
  HiWayAm am = rig.MakeAm(options);
  ASSERT_TRUE(am.Submit(&source, &scheduler).ok());
  auto report = am.RunToCompletion();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->status.ok()) << report->status.ToString();
  EXPECT_EQ(report->tasks_completed, 1);
  EXPECT_EQ(report->task_attempts,
            report->failed_attempts + report->tasks_completed);
}

TEST(HiWayAmTest, LostContainersExhaustRetriesLikeFailedAttempts) {
  // Every attempt's container is killed while it localises: each loss is
  // a failed attempt, traced as a retry, until the retry budget is spent.
  TestRig rig(4);
  ASSERT_TRUE(rig.dfs->IngestFile("/in/reads.fq", 8 << 20).ok());
  Tracer tracer(&rig.engine);
  tracer.set_enabled(true);
  StaticWorkflowSource source(
      "doomed", {MakeTask(7, "bowtie2", {"/in/reads.fq"}, {"/out/a.sam"})});
  FcfsScheduler scheduler;
  HiWayOptions options;
  options.task_retry.max_attempts = 3;
  HiWayAm am = rig.MakeAm(options);
  am.SetTracer(&tracer);
  ASSERT_TRUE(am.Submit(&source, &scheduler).ok());
  // A container is killed on its second sighting, a quarter second after
  // the AM received it and well inside its 1 s launch overhead.
  std::set<ContainerId> seen;
  std::function<void()> kill_attempts = [&] {
    for (const Container& c : rig.rm->RunningContainers()) {
      if (c.app != am.app() || c.is_am) continue;
      if (!seen.insert(c.id).second) rig.rm->KillContainer(c.id);
    }
    if (!am.finished()) rig.engine.ScheduleAfter(0.25, kill_attempts);
  };
  rig.engine.ScheduleAfter(0.25, kill_attempts);
  auto report = am.RunToCompletion();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->status.IsRuntimeError()) << report->status.ToString();
  EXPECT_NE(report->status.message().find("task 7 ('bowtie2')"),
            std::string::npos)
      << report->status.ToString();
  EXPECT_EQ(report->task_attempts, 3);
  EXPECT_EQ(report->failed_attempts, report->task_attempts);
  EXPECT_EQ(report->tasks_completed, 0);
  int retries = 0;
  for (const TraceEvent& ev : tracer.Drain()) {
    if (std::string(ev.name) == "task_retry") ++retries;
  }
  EXPECT_EQ(retries, report->task_attempts);
}

TEST(HiWayAmTest, LaunchOverheadAddsOncePerChainVertex) {
  auto makespan = [](double launch_overhead_s) {
    TestRig rig(2);
    EXPECT_TRUE(rig.dfs->IngestFile("/in/reads.fq", 8 << 20).ok());
    StaticWorkflowSource source(
        "chain", {MakeTask(1, "bowtie2", {"/in/reads.fq"}, {"/out/a"}),
                  MakeTask(2, "samtools-sort", {"/out/a"}, {"/out/b"}),
                  MakeTask(3, "varscan", {"/out/b"}, {"/out/c"})});
    FcfsScheduler scheduler;
    HiWayOptions options;
    options.task_launch_overhead_s = launch_overhead_s;
    HiWayAm am = rig.MakeAm(options);
    EXPECT_TRUE(am.Submit(&source, &scheduler).ok());
    auto report = am.RunToCompletion();
    EXPECT_TRUE(report.ok() && report->status.ok());
    return report->Makespan();
  };
  // Three sequential vertices, 10 s more each.
  EXPECT_NEAR(makespan(11.0) - makespan(1.0), 30.0, 2.0);
}

TEST(HiWayAmTest, StaticSchedulerRejectedForIterativeSource) {
  // A fake iterative source.
  class IterativeSource : public WorkflowSource {
   public:
    std::string name() const override { return "iterative"; }
    bool IsStatic() const override { return false; }
    Result<std::vector<TaskSpec>> Init() override {
      return std::vector<TaskSpec>{};
    }
    Result<std::vector<TaskSpec>> OnTaskCompleted(const TaskResult&) override {
      return std::vector<TaskSpec>{};
    }
    bool IsDone() const override { return true; }
    std::vector<std::string> Targets() const override { return {}; }
  };
  TestRig rig(2);
  IterativeSource source;
  RoundRobinScheduler scheduler;
  HiWayAm am = rig.MakeAm();
  Status st = am.Submit(&source, &scheduler);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST(HiWayAmTest, HeftRunsStaticDagToCompletion) {
  TestRig rig(3);
  ASSERT_TRUE(rig.dfs->IngestFile("/in/a", 16 << 20).ok());
  std::vector<TaskSpec> tasks;
  tasks.push_back(MakeTask(1, "mProjectPP", {"/in/a"}, {"/out/p1"}));
  tasks.push_back(MakeTask(2, "mProjectPP", {"/in/a"}, {"/out/p2"}));
  tasks.push_back(MakeTask(3, "mAdd", {"/out/p1", "/out/p2"}, {"/out/sum"}));
  StaticWorkflowSource source("mini-montage", tasks, {"/out/sum"});
  HeftScheduler scheduler(&rig.estimator);
  HiWayAm am = rig.MakeAm();
  ASSERT_TRUE(am.Submit(&source, &scheduler).ok());
  auto report = am.RunToCompletion();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->status.ok()) << report->status.ToString();
  EXPECT_EQ(report->tasks_completed, 3);
}

TEST(HiWayAmTest, TailoredContainersCapAtToolThreads) {
  TestRig rig(2, /*cores=*/8);
  ASSERT_TRUE(rig.dfs->IngestFile("/in/v.vcf", 1 << 20).ok());
  // annovar is single-threaded; with tailoring its container shrinks to
  // one core, so eight annotate tasks can run on one 8-core node at once.
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(MakeTask(i + 1, "annovar", {"/in/v.vcf"},
                             {StrFormat("/out/a%d.csv", i)}));
  }
  StaticWorkflowSource fat_source("fat", tasks);
  FcfsScheduler fat_sched;
  HiWayOptions fat;
  fat.container_vcores = 8;
  fat.container_memory_mb = 8000;
  HiWayAm fat_am = rig.MakeAm(fat);
  ASSERT_TRUE(fat_am.Submit(&fat_source, &fat_sched).ok());
  auto fat_report = fat_am.RunToCompletion();
  ASSERT_TRUE(fat_report.ok() && fat_report->status.ok());

  TestRig rig2(2, /*cores=*/8);
  ASSERT_TRUE(rig2.dfs->IngestFile("/in/v.vcf", 1 << 20).ok());
  StaticWorkflowSource tailored_source("tailored", tasks);
  FcfsScheduler tailored_sched;
  HiWayOptions tailored = fat;
  tailored.tailor_containers = true;
  HiWayAm tailored_am = rig2.MakeAm(tailored);
  ASSERT_TRUE(tailored_am.Submit(&tailored_source, &tailored_sched).ok());
  auto tailored_report = tailored_am.RunToCompletion();
  ASSERT_TRUE(tailored_report.ok() && tailored_report->status.ok());

  // Tailoring unlocks parallelism the identical fat containers wasted.
  EXPECT_LT(tailored_report->Makespan(), 0.5 * fat_report->Makespan());
}

TEST(HiWayAmTest, RunThatCanNeverProgressEndsInsteadOfSpinning) {
  // Node 1 is the only node big enough for the 8-vcore task container;
  // the AM sits on node 0. Killing node 1 before the allocation pass
  // strands the request: nothing can ever happen again. A live AM costs
  // the engine no events, so the engine drains and RunToCompletion
  // reports the stuck run instead of spinning forever.
  SimEngine engine;
  FlowNetwork net(&engine);
  ClusterSpec spec;
  NodeSpec small;
  small.cores = 2;
  small.memory_mb = 8192;
  NodeSpec big;
  big.cores = 8;
  big.memory_mb = 8192;
  spec.nodes = {small, big};
  Cluster cluster(&engine, &net, spec);
  DfsOptions dfs_opts;
  dfs_opts.replication = 1;
  Dfs dfs(&cluster, dfs_opts);
  ResourceManager rm(&cluster, YarnOptions());
  ToolRegistry tools;
  RegisterStandardTools(&tools);
  ProvenanceManager provenance;
  RuntimeEstimator estimator;
  ASSERT_TRUE(dfs.IngestFile("/in/a.fq", 1 << 20).ok());
  StaticWorkflowSource source(
      "stranded", {MakeTask(7, "bowtie2", {"/in/a.fq"}, {"/out/a.sam"})});
  FcfsScheduler scheduler;
  HiWayOptions options;
  options.container_vcores = 8;
  HiWayAm am(&cluster, &rm, &dfs, &tools, &provenance, &estimator, options);
  ASSERT_TRUE(am.Submit(&source, &scheduler).ok());
  ASSERT_EQ(*rm.AmNode(am.app()), 0);
  rm.KillNode(1);
  auto report = am.RunToCompletion();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsRuntimeError()) << report.status().ToString();
  EXPECT_FALSE(am.finished());
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(HiWayAmTest, DeclinedTailoredContainerIsReRequestedAtItsOwnSize) {
  // The AM defaults (8 vcores) fit no 4-core node; tailoring shrinks
  // every annovar container to one core. Node 0 looks terrible to the
  // online-MCT scheduler, so it declines containers there, and each
  // decline re-requests a container. Sized from the AM defaults, that
  // re-request could never be placed and its task would wait forever.
  TestRig rig(2, /*cores=*/4);
  ASSERT_TRUE(rig.dfs->IngestFile("/in/v.vcf", 1 << 20).ok());
  rig.estimator.Observe("annovar", 0, 1000.0);
  rig.estimator.Observe("annovar", 1, 10.0);
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(MakeTask(i + 1, "annovar", {"/in/v.vcf"},
                             {StrFormat("/out/a%d.csv", i)}));
  }
  StaticWorkflowSource source("declined", tasks);
  OnlineMctScheduler scheduler(&rig.estimator, 2);
  HiWayOptions options;
  options.container_vcores = 8;
  options.container_memory_mb = 8000;
  options.tailor_containers = true;
  HiWayAm am = rig.MakeAm(options);
  ASSERT_TRUE(am.Submit(&source, &scheduler).ok());
  // Bounded in virtual time, so a hung request fails the assertion below
  // instead of running the engine on.
  rig.engine.RunUntil(3600.0);
  ASSERT_TRUE(am.finished());
  EXPECT_TRUE(am.report().status.ok()) << am.report().status.ToString();
  EXPECT_EQ(am.report().tasks_completed, 8);
  EXPECT_EQ(rig.rm->running_containers(), 0);
}

TEST(HiWayAmTest, OnlineMctRunsIterativeWorkflows) {
  TestRig rig(3);
  ASSERT_TRUE(rig.dfs->IngestFile("/in/reads.fq", 16 << 20).ok());
  std::vector<TaskSpec> tasks;
  tasks.push_back(MakeTask(1, "bowtie2", {"/in/reads.fq"}, {"/out/a.sam"}));
  StaticWorkflowSource source("mct", tasks);
  OnlineMctScheduler scheduler(&rig.estimator, 3);
  EXPECT_FALSE(scheduler.IsStatic());
  HiWayAm am = rig.MakeAm();
  ASSERT_TRUE(am.Submit(&source, &scheduler).ok());
  auto report = am.RunToCompletion();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->status.ok());
}

}  // namespace
}  // namespace hiway
