// Tests for the Karamel/Chef-style reproducible-installation module.

#include "src/infra/karamel.h"

#include <gtest/gtest.h>

#include <set>

#include "src/core/client.h"
#include "src/service/workflow_service.h"

namespace hiway {
namespace {

TEST(KaramelTest, ConvergesRecipesInDependencyOrder) {
  Karamel karamel;
  std::vector<std::string> order;
  Recipe a;
  a.name = "a";
  a.dependencies = {"b"};
  a.converge = [&order](const ChefAttributes&, Deployment*) {
    order.push_back("a");
    return Status::OK();
  };
  Recipe b;
  b.name = "b";
  b.converge = [&order](const ChefAttributes&, Deployment*) {
    order.push_back("b");
    return Status::OK();
  };
  // Register in the "wrong" order on purpose.
  karamel.AddRecipe(a);
  karamel.AddRecipe(b);
  ASSERT_TRUE(karamel.Converge().ok());
  EXPECT_EQ(order, (std::vector<std::string>{"b", "a"}));
}

TEST(KaramelTest, DetectsCyclesAndUnknownDependencies) {
  {
    Karamel karamel;
    Recipe a;
    a.name = "a";
    a.dependencies = {"b"};
    a.converge = [](const ChefAttributes&, Deployment*) {
      return Status::OK();
    };
    Recipe b;
    b.name = "b";
    b.dependencies = {"a"};
    b.converge = a.converge;
    karamel.AddRecipe(a);
    karamel.AddRecipe(b);
    EXPECT_TRUE(karamel.Converge().status().IsInvalidArgument());
  }
  {
    Karamel karamel;
    Recipe a;
    a.name = "a";
    a.dependencies = {"ghost"};
    a.converge = [](const ChefAttributes&, Deployment*) {
      return Status::OK();
    };
    karamel.AddRecipe(a);
    EXPECT_TRUE(karamel.Converge().status().IsInvalidArgument());
  }
  {
    Karamel karamel;
    Recipe a;
    a.name = "dup";
    a.converge = [](const ChefAttributes&, Deployment*) {
      return Status::OK();
    };
    karamel.AddRecipe(a);
    karamel.AddRecipe(a);
    EXPECT_TRUE(karamel.Converge().status().IsInvalidArgument());
  }
}

TEST(KaramelTest, RecipeFailureNamesTheRecipe) {
  Karamel karamel;
  Recipe bad;
  bad.name = "workflow::broken";
  bad.converge = [](const ChefAttributes&, Deployment*) {
    return Status::IoError("no data");
  };
  karamel.AddRecipe(bad);
  auto result = karamel.Converge();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("workflow::broken"),
            std::string::npos);
}

TEST(HadoopRecipeTest, BuildsClusterFromAttributes) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "6");
  karamel.SetAttribute("cluster/cores", "16");
  karamel.SetAttribute("cluster/switch_mbps", "500");
  karamel.SetAttribute("cluster/ebs_mbps", "120");
  karamel.SetAttribute("dfs/replication", "2");
  karamel.AddRecipe(HadoopInstallRecipe());
  auto d = karamel.Converge();
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ((*d)->cluster->num_nodes(), 6);
  EXPECT_EQ((*d)->cluster->node(0).cores, 16);
  EXPECT_DOUBLE_EQ(
      (*d)->net.Capacity((*d)->cluster->switch_resource()), 500.0);
  EXPECT_TRUE((*d)->cluster->has_ebs());
  EXPECT_EQ((*d)->dfs->options().replication, 2);
  EXPECT_NE((*d)->rm, nullptr);
  EXPECT_NE((*d)->load, nullptr);
}

TEST(HadoopRecipeTest, RejectsNonsenseAttributes) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "0");
  karamel.AddRecipe(HadoopInstallRecipe());
  EXPECT_FALSE(karamel.Converge().ok());
}

TEST(HiWayRecipeTest, InstallsToolsAndProvenance) {
  Karamel karamel;
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  auto d = karamel.Converge();
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE((*d)->tools.Contains("bowtie2"));
  EXPECT_TRUE((*d)->tools.Contains("mAdd"));
  EXPECT_NE((*d)->provenance, nullptr);
  EXPECT_EQ((*d)->provenance->size(), 0u);
}

TEST(WorkflowRecipesTest, StageDocumentsAndIngestInputs) {
  Karamel karamel;
  karamel.SetAttribute("snv/chunks", "4");
  karamel.SetAttribute("snv/chunk_mb", "64");
  karamel.SetAttribute("kmeans/points_mb", "16");
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(SnvWorkflowRecipe());
  karamel.AddRecipe(KmeansWorkflowRecipe());
  karamel.AddRecipe(MontageWorkflowRecipe());
  karamel.AddRecipe(TraplineWorkflowRecipe());
  auto d = karamel.Converge();
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ASSERT_EQ((*d)->workflows.size(), 4u);
  // Inputs of every staged workflow exist in the DFS.
  for (const auto& [name, staged] : (*d)->workflows) {
    for (const auto& [path, size] : staged.inputs) {
      EXPECT_TRUE((*d)->dfs->Exists(path)) << name << " " << path;
    }
  }
  EXPECT_EQ((*d)->workflows.at("snv-calling").language, "cuneiform");
  EXPECT_EQ((*d)->workflows.at("montage").language, "dax");
  EXPECT_EQ((*d)->workflows.at("trapline").language, "galaxy");
  EXPECT_EQ((*d)->workflows.at("trapline").galaxy_inputs.size(), 6u);
}

TEST(WorkflowRecipesTest, S3IngestRegistersExternalFiles) {
  Karamel karamel;
  karamel.SetAttribute("cluster/s3_mbps", "1000");
  karamel.SetAttribute("snv/chunks", "2");
  karamel.SetAttribute("snv/ingest", "s3");
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(SnvWorkflowRecipe());
  auto d = karamel.Converge();
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  const StagedWorkflow& staged = (*d)->workflows.at("snv-calling");
  for (const auto& [path, size] : staged.inputs) {
    EXPECT_TRUE((*d)->dfs->Exists(path));
    EXPECT_EQ((*d)->dfs->LocalBytes(path, 0), 0);  // external, no replicas
  }
}

TEST(WorkflowRecipesTest, UnknownIngestModeFails) {
  Karamel karamel;
  karamel.SetAttribute("snv/ingest", "carrier-pigeon");
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(SnvWorkflowRecipe());
  EXPECT_FALSE(karamel.Converge().ok());
}

TEST(ClientTest, RunsStagedWorkflowEndToEnd) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "4");
  karamel.SetAttribute("cluster/cores", "4");
  karamel.SetAttribute("kmeans/points_mb", "16");
  karamel.SetAttribute("kmeans/converge_after", "2");
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(KmeansWorkflowRecipe());
  auto d = karamel.Converge();
  ASSERT_TRUE(d.ok());
  HiWayClient client(d->get());
  auto report = client.Run("kmeans", "fcfs");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->status.ok()) << report->status.ToString();
  // init + 2 x (step + check) = 5.
  EXPECT_EQ(report->tasks_completed, 5);
}

TEST(ClientTest, UnknownWorkflowOrPolicyFails) {
  Karamel karamel;
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(KmeansWorkflowRecipe());
  auto d = karamel.Converge();
  ASSERT_TRUE(d.ok());
  HiWayClient client(d->get());
  EXPECT_TRUE(client.Run("nope", "fcfs").status().IsNotFound());
  EXPECT_TRUE(
      client.Run("kmeans", "quantum").status().IsInvalidArgument());
}

// --- fuzz regressions (tests/fuzz/corpus/karamel/, docs/fuzzing.md) ------

Result<std::unique_ptr<Deployment>> ConvergeHadoopWith(
    const std::string& key, const std::string& value) {
  Karamel karamel;
  karamel.SetAttribute(key, value);
  karamel.AddRecipe(HadoopInstallRecipe());
  return karamel.Converge();
}

TEST(KaramelAttrTest, BlockSizeShiftOverflowRejected) {
  // crash_block_shift.txt: dfs/block_mb=8796093022208 made `block_mb << 20`
  // overflow int64, leaving a non-positive DFS block size that tripped a
  // HIWAY_CHECK abort inside Dfs. Attribute validation now bounds it.
  auto d = ConvergeHadoopWith("dfs/block_mb", "8796093022208");
  ASSERT_FALSE(d.ok());
  EXPECT_NE(d.status().ToString().find("dfs/block_mb"), std::string::npos)
      << d.status().ToString();
  EXPECT_NE(d.status().ToString().find("allowed range"), std::string::npos);
}

TEST(KaramelAttrTest, UnknownYarnSchedulerRejected) {
  // crash_yarn_scheduler.txt: yarn/scheduler=lottery reached the RM
  // constructor unparsed and tripped a HIWAY_CHECK abort there. The
  // recipe now parses the policy and names the key and the token.
  auto d = ConvergeHadoopWith("yarn/scheduler", "lottery");
  ASSERT_FALSE(d.ok());
  EXPECT_TRUE(d.status().IsInvalidArgument()) << d.status().ToString();
  EXPECT_NE(d.status().ToString().find("yarn/scheduler"), std::string::npos)
      << d.status().ToString();
  EXPECT_NE(d.status().ToString().find("lottery"), std::string::npos);

  auto fair = ConvergeHadoopWith("yarn/scheduler", "fair");
  ASSERT_TRUE(fair.ok()) << fair.status().ToString();
  EXPECT_EQ((*fair)->rm->policy(), RmPolicy::kFair);
}

TEST(KaramelAttrTest, MalformedAttributesNameKeyAndToken) {
  auto workers = ConvergeHadoopWith("cluster/workers", "many");
  ASSERT_FALSE(workers.ok());
  EXPECT_NE(workers.status().ToString().find("cluster/workers"),
            std::string::npos)
      << workers.status().ToString();
  EXPECT_NE(workers.status().ToString().find("many"), std::string::npos);

  auto negative = ConvergeHadoopWith("cluster/workers", "-2");
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.status().ToString().find("allowed range"),
            std::string::npos)
      << negative.status().ToString();

  auto inf_bw = ConvergeHadoopWith("cluster/disk_mbps", "inf");
  ASSERT_FALSE(inf_bw.ok());
  EXPECT_NE(inf_bw.status().ToString().find("cluster/disk_mbps"),
            std::string::npos)
      << inf_bw.status().ToString();

  // Every key is checked, whether or not its feature is enabled, and an
  // out-of-range value names the range.
  struct Case {
    const char* key;
    const char* value;
    const char* expected;
  };
  const Case cases[] = {
      {"yarn/preemption_grace_s", "abc", "'abc' is not a number"},
      {"hiway/cache_staging_mb", "-7", "allowed range [-1, 1048576]"},
      {"hiway/cache_verify_rate", "1.5", "allowed range [0, 1]"},
  };
  for (const Case& c : cases) {
    auto d = ConvergeHadoopWith(c.key, c.value);
    ASSERT_FALSE(d.ok()) << c.key;
    const std::string message = d.status().ToString();
    EXPECT_NE(message.find(c.key), std::string::npos) << message;
    EXPECT_NE(message.find(c.expected), std::string::npos) << message;
  }
}

TEST(KaramelAttrTest, UnknownKeyRejectedBeforeAnyRecipeRuns) {
  Karamel karamel;
  bool ran = false;
  Recipe probe;
  probe.name = "probe";
  probe.converge = [&ran](const ChefAttributes&, Deployment*) {
    ran = true;
    return Status::OK();
  };
  karamel.AddRecipe(probe);
  karamel.SetAttribute("cluster/worker", "8");  // typo of cluster/workers
  auto d = karamel.Converge();
  ASSERT_FALSE(d.ok());
  EXPECT_TRUE(d.status().IsInvalidArgument()) << d.status().ToString();
  EXPECT_NE(d.status().ToString().find("cluster/worker"), std::string::npos)
      << d.status().ToString();
  EXPECT_FALSE(ran);
}

TEST(KaramelAttrTest, SwitchesAcceptEverySpellingInUse) {
  for (const char* on : {"on", "true", "1"}) {
    auto d = ConvergeHadoopWith("yarn/preemption", on);
    ASSERT_TRUE(d.ok()) << on << ": " << d.status().ToString();
    EXPECT_TRUE((*d)->rm->options().preemption) << on;
    auto traced = ConvergeHadoopWith("obs/tracing", on);
    ASSERT_TRUE(traced.ok()) << on << ": " << traced.status().ToString();
    EXPECT_TRUE((*traced)->tracer.enabled()) << on;
  }
  for (const char* off : {"off", "false", "0"}) {
    auto d = ConvergeHadoopWith("yarn/preemption", off);
    ASSERT_TRUE(d.ok()) << off << ": " << d.status().ToString();
    EXPECT_FALSE((*d)->rm->options().preemption) << off;
    auto traced = ConvergeHadoopWith("obs/tracing", off);
    ASSERT_TRUE(traced.ok()) << off << ": " << traced.status().ToString();
    EXPECT_FALSE((*traced)->tracer.enabled()) << off;
  }
  // Checked before any recipe runs, so hiway::install need not be there.
  auto yes = ConvergeHadoopWith("hiway/gc", "yes");
  ASSERT_FALSE(yes.ok());
  EXPECT_TRUE(yes.status().IsInvalidArgument()) << yes.status().ToString();
  EXPECT_NE(yes.status().ToString().find("hiway/gc"), std::string::npos)
      << yes.status().ToString();
  EXPECT_NE(yes.status().ToString().find("'yes'"), std::string::npos);
}

TEST(KaramelAttrTest, EveryKeyHasOneRowAndItsDefaultConverges) {
  Karamel karamel;
  std::set<std::string> keys;
  for (const AttributeSpec& spec : AttributeTable()) {
    EXPECT_TRUE(keys.insert(spec.key).second) << "duplicate row " << spec.key;
    EXPECT_NE(std::string(spec.meaning), "") << spec.key;
    karamel.SetAttribute(spec.key, spec.default_value);
  }
  EXPECT_EQ(keys.size(), 42u);
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(SnvWorkflowRecipe());
  karamel.AddRecipe(TraplineWorkflowRecipe());
  karamel.AddRecipe(MontageWorkflowRecipe());
  karamel.AddRecipe(KmeansWorkflowRecipe());
  auto d = karamel.Converge();
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ((*d)->cluster->num_nodes(), 4);
}

TEST(ElasticRecipeTest, JoinersGetTheFleetsWorkerHardware) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "2");
  karamel.SetAttribute("cluster/cores", "3");
  karamel.SetAttribute("cluster/memory_mb", "5000");
  karamel.SetAttribute("elastic/autoscaler", "aggressive");
  karamel.SetAttribute("elastic/min_nodes", "2");
  karamel.SetAttribute("elastic/max_nodes", "6");
  karamel.SetAttribute("snv/chunks", "12");
  karamel.SetAttribute("snv/chunk_mb", "32");
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(SnvWorkflowRecipe());
  auto d = karamel.Converge();
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE((*service)->SubmitStaged("snv-calling").ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  const Cluster& cluster = *(*d)->cluster;
  ASSERT_GT(cluster.num_nodes(), 2);  // the autoscaler added workers
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_EQ(cluster.node(n).cores, 3) << "node " << n;
    EXPECT_DOUBLE_EQ(cluster.node(n).memory_mb, 5000.0) << "node " << n;
  }
}

}  // namespace
}  // namespace hiway
