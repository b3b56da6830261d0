// Tests for elastic cluster membership (docs/elastic-cluster.md):
// runtime node join/drain/decommission in the RM, the autoscaler policy
// engine and its poll loop, spot revocation with graceful drain (warned
// work requeues uncharged), and the churn-safety of the data services —
// staging-cache migration, DFS rescue + re-replication, result-cache
// sweeps, and post-churn locality metadata.

#include "src/elastic/elastic_cluster.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/elastic/autoscaler.h"
#include "src/infra/karamel.h"
#include "src/service/workflow_service.h"
#include "src/sim/fault_injector.h"
#include "src/yarn/rm_scheduler.h"

namespace hiway {
namespace {

// ---------------------------------------------------------------------
// Autoscaler policy presets.
// ---------------------------------------------------------------------

TEST(AutoscalerPolicyTest, ResolvesPresetsAndRejectsUnknownNames) {
  for (const char* name : {"off", "fixed", ""}) {
    auto p = AutoscalerPolicyByName(name);
    ASSERT_TRUE(p.ok()) << name;
    EXPECT_FALSE(p->enabled);
  }
  for (const char* name : {"reactive", "aggressive", "conservative"}) {
    auto p = AutoscalerPolicyByName(name);
    ASSERT_TRUE(p.ok()) << name;
    EXPECT_TRUE(p->enabled);
    EXPECT_EQ(p->name, name);
    EXPECT_GT(p->poll_s, 0.0);
    EXPECT_GT(p->scale_out_step, 0);
  }
  auto bad = AutoscalerPolicyByName("yolo");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("yolo"), std::string::npos);
}

// ---------------------------------------------------------------------
// RM membership: join, drain, decommission (unit level).
// ---------------------------------------------------------------------

class RecordingAm : public AmCallbacks {
 public:
  void OnContainerAllocated(const Container& container,
                            int64_t cookie) override {
    allocations.push_back({container, cookie});
  }
  void OnContainerLost(const Container& container,
                       ContainerLossReason reason) override {
    lost.push_back(container);
    loss_reasons.push_back(reason);
  }
  void OnNodeDraining(NodeId node, double deadline) override {
    drain_notices.emplace_back(node, deadline);
  }
  std::vector<std::pair<Container, int64_t>> allocations;
  std::vector<Container> lost;
  std::vector<ContainerLossReason> loss_reasons;
  std::vector<std::pair<NodeId, double>> drain_notices;
};

struct MembershipRig {
  SimEngine engine;
  FlowNetwork net{&engine};
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<ResourceManager> rm;
  RecordingAm am;
  ApplicationId app = -1;

  explicit MembershipRig(int nodes, int cores = 4, double memory_mb = 4096) {
    NodeSpec node;
    node.cores = cores;
    node.memory_mb = memory_mb;
    cluster = std::make_unique<Cluster>(
        &engine, &net, ClusterSpec::Uniform(nodes, node, 1000.0));
    rm = std::make_unique<ResourceManager>(cluster.get(), YarnOptions{});
    auto result = rm->RegisterApplication("test-app", &am, 1, 512);
    EXPECT_TRUE(result.ok());
    app = *result;
  }
};

TEST(MembershipTest, JoinedNodeAcceptsPlacements) {
  MembershipRig rig(1, 2, 2048);
  // The single node hosts the AM (1 of 2 cores); a 2-core request cannot
  // fit anywhere yet.
  ContainerRequest request;
  request.vcores = 2;
  request.memory_mb = 1024;
  rig.rm->SubmitRequest(rig.app, request);
  rig.engine.RunUntil(10.0);
  EXPECT_TRUE(rig.am.allocations.empty());

  // A node joins at runtime; the pending request lands on it.
  NodeSpec spec;
  spec.cores = 2;
  spec.memory_mb = 2048;
  NodeId id = rig.cluster->AddNode(spec);
  rig.rm->AddNode(id);
  rig.engine.Run();
  ASSERT_EQ(rig.am.allocations.size(), 1u);
  EXPECT_EQ(rig.am.allocations[0].first.node, id);
  EXPECT_TRUE(rig.rm->IsNodeAlive(id));
}

TEST(MembershipTest, DrainingNodeStopsReceivingWork) {
  MembershipRig rig(2, 2, 2048);
  rig.rm->BeginDrain(1, /*deadline=*/120.0);
  EXPECT_TRUE(rig.rm->IsNodeDraining(1));
  ASSERT_EQ(rig.am.drain_notices.size(), 1u);
  EXPECT_EQ(rig.am.drain_notices[0].first, 1);
  EXPECT_DOUBLE_EQ(rig.am.drain_notices[0].second, 120.0);

  // Node 0 has 1 free core (AM holds the other); node 1 is empty but
  // draining, so both 1-core requests pile onto node 0 and the second
  // waits for the first's release rather than landing on node 1.
  ContainerRequest request;
  request.vcores = 1;
  request.memory_mb = 512;
  rig.rm->SubmitRequest(rig.app, request);
  rig.rm->SubmitRequest(rig.app, request);
  rig.engine.RunUntil(30.0);
  ASSERT_EQ(rig.am.allocations.size(), 1u);
  EXPECT_EQ(rig.am.allocations[0].first.node, 0);
  EXPECT_EQ(rig.rm->pending_requests(), 1);
}

TEST(MembershipTest, DecommissionVacatesWithUnchargedDrainReason) {
  MembershipRig rig(2, 4, 4096);
  ContainerRequest request;
  request.vcores = 1;
  request.memory_mb = 512;
  request.preferred_node = 1;
  request.strict_locality = true;
  rig.rm->SubmitRequest(rig.app, request);
  rig.engine.Run();
  ASSERT_EQ(rig.am.allocations.size(), 1u);

  rig.rm->BeginDrain(1, /*deadline=*/60.0);
  ASSERT_TRUE(rig.rm->DecommissionNode(1));
  ASSERT_EQ(rig.am.lost.size(), 1u);
  EXPECT_EQ(rig.am.loss_reasons[0], ContainerLossReason::kDrained);
  EXPECT_FALSE(rig.rm->IsNodeAlive(1));
  EXPECT_FALSE(rig.rm->IsNodeDraining(1));
  EXPECT_EQ(rig.rm->counters().drained_containers, 1);
  EXPECT_EQ(rig.rm->counters().lost_containers, 0);
}

TEST(MembershipTest, DecommissionRefusesNodesHostingAnAm) {
  MembershipRig rig(2, 4, 4096);
  auto am_node = rig.rm->AmNode(rig.app);
  ASSERT_TRUE(am_node.ok());
  EXPECT_FALSE(rig.rm->DecommissionNode(*am_node));
  EXPECT_TRUE(rig.rm->IsNodeAlive(*am_node));
}

// ---------------------------------------------------------------------
// Deployment helpers for the end-to-end suites.
// ---------------------------------------------------------------------

Result<std::unique_ptr<Deployment>> ElasticDeployment(
    const ChefAttributes& extra = {}) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "6");
  karamel.SetAttribute("cluster/cores", "4");
  karamel.SetAttribute("snv/chunks", "8");
  karamel.SetAttribute("snv/chunk_mb", "32");
  for (const auto& [k, v] : extra) karamel.SetAttribute(k, v);
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(SnvWorkflowRecipe());
  return karamel.Converge();
}

std::map<std::string, int64_t> DfsSnapshot(Dfs* dfs) {
  std::map<std::string, int64_t> files;
  for (const std::string& path : dfs->ListFiles()) {
    auto info = dfs->Stat(path);
    if (info.ok()) files[path] = info->size_bytes;
  }
  return files;
}

// ---------------------------------------------------------------------
// ElasticCluster control plane.
// ---------------------------------------------------------------------

TEST(ElasticClusterTest, RecipeBuildsControlPlaneWithClampedBounds) {
  auto d = ElasticDeployment({{"elastic/autoscaler", "reactive"},
                              {"elastic/min_nodes", "2"},
                              {"elastic/max_nodes", "12"}});
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ASSERT_NE((*d)->elastic, nullptr);
  const ElasticOptions& opts = (*d)->elastic->options();
  EXPECT_TRUE(opts.policy.enabled);
  EXPECT_EQ(opts.policy.name, "reactive");
  EXPECT_EQ(opts.policy.min_nodes, 2);
  EXPECT_EQ(opts.policy.max_nodes, 12);
  // Joiner hardware mirrors the converged workers.
  EXPECT_EQ(opts.node_template.cores, 4);

  auto bad = ElasticDeployment({{"elastic/autoscaler", "warp-speed"}});
  EXPECT_FALSE(bad.ok());
}

TEST(ElasticClusterTest, AutoscalerGrowsOnBacklogAndShrinksWhenIdle) {
  // Start small with headroom: a parallel workflow backlogs the two
  // initial workers, the reactive policy grows the fleet, and after the
  // run drains the idle joiners are retired down to min_nodes.
  auto d = ElasticDeployment({{"cluster/workers", "2"},
                              {"elastic/autoscaler", "reactive"},
                              {"elastic/min_nodes", "2"},
                              {"elastic/max_nodes", "8"},
                              {"snv/chunks", "12"}});
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ElasticCluster* elastic = (*d)->elastic.get();
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());

  auto id = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  const SubmissionRecord* rec = (*service)->record(*id);
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->state, SubmissionState::kSucceeded);

  const ElasticStats& stats = elastic->stats();
  EXPECT_GT(stats.scale_out_actions, 0);
  EXPECT_GT(stats.nodes_added, 0);
  EXPECT_GT(stats.node_seconds, 0.0);
  EXPECT_GE(elastic->LiveNodes(), 2);
  EXPECT_TRUE((*d)->dfs->AllFilesReadable());
}

TEST(ElasticClusterTest, AutoscalerRetiresIdleWorkersDownToMinNodes) {
  auto d = ElasticDeployment({{"elastic/autoscaler", "reactive"},
                              {"elastic/min_nodes", "3"}});
  ASSERT_TRUE(d.ok());
  ElasticCluster* elastic = (*d)->elastic.get();
  // No workload, so every worker is idle from the start. A synthetic
  // activity window keeps the poll loop alive long enough to retire
  // the surplus; it quiesces when the window closes.
  elastic->SetActiveCheck(
      [d = d->get()] { return d->engine.Now() < 600.0; });
  elastic->Start();
  (*d)->engine.Run();
  const ElasticStats& stats = elastic->stats();
  EXPECT_GT(stats.scale_in_actions, 0);
  EXPECT_GT(stats.nodes_decommissioned, 0);
  EXPECT_EQ(elastic->LiveNodes(), 3);
  // Zero data loss through every graceful retirement.
  EXPECT_TRUE((*d)->dfs->AllFilesReadable());
}

TEST(ElasticClusterTest, PollLoopQuiescesWithTheWorkload) {
  auto d = ElasticDeployment({{"elastic/autoscaler", "reactive"}});
  ASSERT_TRUE(d.ok());
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());
  auto id = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(id.ok());
  // RunToCompletion returning OK means the engine drained: the poll loop
  // stopped rescheduling itself once the workload went idle.
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  SUCCEED();
}

// ---------------------------------------------------------------------
// Spot revocation end-to-end: graceful drain, uncharged requeues,
// correct outputs.
// ---------------------------------------------------------------------

TEST(ElasticClusterTest, WarnedRevocationFinishesWorkflowWithoutCharges) {
  auto d = ElasticDeployment({{"hiway/cache_staging_mb", "0"}});
  ASSERT_TRUE(d.ok());
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
  ASSERT_EQ(rec->state, SubmissionState::kSucceeded);
  EXPECT_EQ(injector.counters().spot_revocations, 1);
  EXPECT_EQ((*d)->elastic->stats().nodes_revoked, 1);

  // Drained requeues are exempt from the attempt charge: requeued tasks
  // show up as tasks_drained, not failed_attempts.
  EXPECT_EQ(rec->report.failed_attempts, 0);
  // The warned departure lost no data.
  EXPECT_TRUE((*d)->dfs->AllFilesReadable());
  for (const std::string& path : (*d)->dfs->ListFiles()) {
    EXPECT_TRUE((*d)->dfs->FileReadable(path)) << path;
  }
}

// An unwarned kill-node fault costs the node's life up to the kill: with
// the autoscaler off nothing else accrues on the way, so node-seconds are
// exactly the summed node lifetimes.

// A revocation only takes effect on a live, not yet draining node of the
// fleet; the rest are skipped (an id beyond the fleet too, since joins
// grow it after parsing) and counted neither by the injector nor by the
// elastic control plane.
TEST(ElasticClusterTest, RevocationsThatHitNothingAreNotCounted) {
  auto d = ElasticDeployment();
  ASSERT_TRUE(d.ok());
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());
  FaultInjector injector(&(*d)->engine, /*seed=*/13);
  (*service)->InstallFaultHandlers(&injector);
  ASSERT_TRUE(injector
                  .ArmSpec("spot-revoke@1:node=999, spot-revoke@5:node=5, "
                           "spot-revoke@10:node=5, kill-node@200:node=999, "
                           "spot-revoke@300:node=5")
                  .ok());
  auto id = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  (*d)->engine.RunUntil(1000.0);  // faults due after the workflow, too
  const SubmissionRecord* rec = (*service)->record(*id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, SubmissionState::kSucceeded);
  EXPECT_EQ(injector.counters().spot_revocations, 1);
  EXPECT_EQ(injector.counters().node_kills, 0);
  EXPECT_EQ((*d)->elastic->stats().nodes_revoked, 1);
  EXPECT_FALSE((*d)->rm->IsNodeAlive(5));
}
TEST(ElasticClusterTest, KillNodeFaultAccruesTheDeadNodesLifetime) {
  auto d = ElasticDeployment();
  ASSERT_TRUE(d.ok());
  ASSERT_FALSE((*d)->elastic->options().policy.enabled);
  const double start = (*d)->engine.Now();
  const int nodes = (*d)->elastic->LiveNodes();
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());

  const double kill_at = 20.0;
  const NodeId victim = (*d)->cluster->num_nodes() - 1;
  FaultInjector injector(&(*d)->engine);
  (*service)->InstallFaultHandlers(&injector);
  ASSERT_TRUE(injector
                  .ArmSpec(StrFormat("kill-node@%.0f:node=%d", kill_at,
                                     static_cast<int>(victim)))
                  .ok());
  auto id = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  ASSERT_EQ((*service)->record(*id)->state, SubmissionState::kSucceeded);
  EXPECT_EQ(injector.counters().node_kills, 1);
  EXPECT_FALSE((*d)->rm->IsNodeAlive(victim));

  const double end = (*d)->engine.Now();
  ASSERT_GT(end, kill_at);
  const double lifetimes = (nodes - 1) * (end - start) + (kill_at - start);
  EXPECT_NEAR((*d)->elastic->stats().node_seconds, lifetimes, 1e-6);
}

TEST(ElasticClusterTest, RevocationStormMatchesFixedFleetOutputs) {
  auto run = [](const std::string& faults) {
    auto d = ElasticDeployment({{"cluster/workers", "8"}});
    EXPECT_TRUE(d.ok());
    auto service =
        WorkflowService::Create(d->get(), WorkflowServiceOptions{});
    EXPECT_TRUE(service.ok());
    FaultInjector injector(&(*d)->engine, /*seed=*/17);
    if (!faults.empty()) {
      (*service)->InstallFaultHandlers(&injector);
      EXPECT_TRUE(injector.ArmSpec(faults).ok());
    }
    auto id = (*service)->SubmitStaged("snv-calling");
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE((*service)->RunToCompletion().ok());
    const SubmissionRecord* rec = (*service)->record(*id);
    EXPECT_EQ(rec->state, SubmissionState::kSucceeded);
    return DfsSnapshot((*d)->dfs.get());
  };
  std::map<std::string, int64_t> calm = run("");
  std::map<std::string, int64_t> storm =
      run("spot-revoke@30:warn=60, spot-revoke@45:warn=60, "
          "spot-revoke@60:warn=60");
  // Byte-identical namespace: same paths, same sizes, despite losing
  // three nodes mid-run.
  EXPECT_EQ(storm, calm);
}

// ---------------------------------------------------------------------
// Churn-safe data services (satellite: re-replication x staging cache
// x post-churn locality).
// ---------------------------------------------------------------------

TEST(ChurnDataServicesTest, DecommissionMigratesStagingAndReReplicates) {
  auto d = ElasticDeployment({{"hiway/cache_staging_mb", "0"},
                              {"dfs/replication", "2"}});
  ASSERT_TRUE(d.ok());
  ASSERT_NE((*d)->staging_cache, nullptr);
  StagingCache* staging = (*d)->staging_cache.get();
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());
  auto id = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  ASSERT_EQ((*service)->record(*id)->state, SubmissionState::kSucceeded);

  // Find a worker with staged bytes and retire it gracefully.
  NodeId victim = kInvalidNode;
  for (NodeId n = (*d)->cluster->num_nodes() - 1; n >= 0; --n) {
    if (staging->NodeBytes(n) > 0 && (*d)->rm->containers_on(n) == 0) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);
  int64_t victim_bytes = staging->NodeBytes(victim);
  ASSERT_GT(victim_bytes, 0);
  int64_t total_before = staging->TotalBytes();

  ASSERT_TRUE((*d)->elastic->DecommissionNode(victim));

  // Unpinned staged inputs moved to survivors instead of vanishing.
  EXPECT_EQ(staging->NodeBytes(victim), 0);
  EXPECT_GT(staging->stats().migrated, 0);
  EXPECT_EQ(staging->TotalBytes(), total_before);
  // Graceful retirement: every file still readable, and re-replication
  // restored the target replica count off the dead node.
  EXPECT_TRUE((*d)->dfs->AllFilesReadable());
  for (const std::string& path : (*d)->dfs->ListFiles()) {
    auto info = (*d)->dfs->Stat(path);
    ASSERT_TRUE(info.ok());
    if (info->external || info->size_bytes == 0) continue;
    for (const DfsBlock& block : info->blocks) {
      EXPECT_GE(static_cast<int>(block.replicas.size()), 2) << path;
      for (NodeId replica : block.replicas) {
        EXPECT_NE(replica, victim) << path;
      }
    }
    // Post-churn locality metadata: the data-aware scheduler's signal
    // reports zero local bytes on the vanished node.
    EXPECT_EQ((*d)->dfs->LocalBytes(path, victim), 0) << path;
  }
}

TEST(ChurnDataServicesTest, UnwarnedLossEvictsOnlyDestroyedCacheEntries) {
  // Replication 1 + a hard kill destroys some task outputs; the result
  // cache's churn sweep must evict exactly those entries so no sealed
  // entry references a vanished replica.
  auto d = ElasticDeployment({{"hiway/cache_results", "on"},
                              {"dfs/replication", "1"}});
  ASSERT_TRUE(d.ok());
  ASSERT_NE((*d)->result_cache, nullptr);
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());
  auto id = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  ASSERT_EQ((*service)->record(*id)->state, SubmissionState::kSucceeded);
  ASSERT_GT((*d)->result_cache->size(), 0u);

  // Hard-kill a worker holding blocks (no drain, no rescue).
  NodeId victim = kInvalidNode;
  for (NodeId n = (*d)->cluster->num_nodes() - 1; n >= 0; --n) {
    if ((*d)->dfs->StoredBytes(n) > 0 && (*d)->rm->containers_on(n) == 0) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);
  ASSERT_TRUE((*d)->elastic->KillNode(victim));
  // With replication 1 the kill destroyed at least one file outright,
  // and the departure's sweep evicted the entries that recorded it.
  EXPECT_GT((*d)->result_cache->stats().churn_evictions, 0);
  // After the sweep the audit finds no dangling entries.
  EXPECT_EQ((*d)->result_cache->AuditAgainstDfs(), 0);

  // The graceful counterpart: decommissioning another node via the
  // elastic path rescues sole replicas, so its sweep evicts nothing.
  NodeId graceful = kInvalidNode;
  for (NodeId n = (*d)->cluster->num_nodes() - 1; n >= 0; --n) {
    if (n == victim || !(*d)->rm->IsNodeAlive(n)) continue;
    if ((*d)->dfs->StoredBytes(n) > 0 && (*d)->rm->containers_on(n) == 0) {
      graceful = n;
      break;
    }
  }
  ASSERT_NE(graceful, kInvalidNode);
  int64_t before = (*d)->result_cache->stats().churn_evictions;
  ASSERT_TRUE((*d)->elastic->DecommissionNode(graceful));
  EXPECT_EQ((*d)->result_cache->stats().churn_evictions, before);
  EXPECT_EQ((*d)->result_cache->AuditAgainstDfs(), 0);
}

// Every departure kind runs the one sequence: whatever the RM and DFS
// steps, the node's capacity, replicas and staged bytes are gone, no
// sealed cache entry dangles, and the node counted up to the departure
// instant and no further.
TEST(ChurnDataServicesTest, EveryDepartureLeavesNothingOnTheNode) {
  struct Case {
    const char* name;
    std::function<bool(ElasticCluster*, NodeId)> depart;
    double settle_s;  // until the departure has happened
  };
  const std::vector<Case> cases = {
      {"kill", [](ElasticCluster* e, NodeId n) { return e->KillNode(n); },
       0.0},
      {"revoke warn=0",
       [](ElasticCluster* e, NodeId n) { return e->RevokeNode(n, 0.0); },
       0.0},
      {"revoke warn=30",
       [](ElasticCluster* e, NodeId n) { return e->RevokeNode(n, 30.0); },
       30.0},
      {"decommission",
       [](ElasticCluster* e, NodeId n) { return e->DecommissionNode(n); },
       0.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto d = ElasticDeployment({{"hiway/cache_results", "on"},
                                {"hiway/cache_staging_mb", "0"},
                                {"dfs/replication", "2"}});
    ASSERT_TRUE(d.ok());
    Deployment* dep = d->get();
    auto service = WorkflowService::Create(dep, WorkflowServiceOptions{});
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE((*service)->SubmitStaged("snv-calling").ok());
    ASSERT_TRUE((*service)->RunToCompletion().ok());

    // A worker holding blocks and staged bytes, one of them pinned.
    NodeId victim = kInvalidNode;
    for (NodeId n = dep->cluster->num_nodes() - 1; n >= 0; --n) {
      if (dep->dfs->StoredBytes(n) > 0 &&
          dep->staging_cache->NodeBytes(n) > 0) {
        victim = n;
        break;
      }
    }
    ASSERT_NE(victim, kInvalidNode);
    dep->staging_cache->InsertPinned(victim, dep->dfs->Intern("/pinned"), 1,
                                     50);

    ElasticCluster* elastic = dep->elastic.get();
    const double t0 = dep->engine.Now();
    const double before = elastic->stats().node_seconds;
    const int nodes = elastic->LiveNodes();
    const int vcores = dep->rm->total_vcores();
    const double depart_at = t0 + 10.0 + c.settle_s;
    dep->engine.ScheduleAt(t0 + 10.0, [&] {
      EXPECT_TRUE(c.depart(elastic, victim));
    });
    dep->engine.RunUntil(depart_at);
    EXPECT_FALSE(dep->rm->IsNodeAlive(victim));
    EXPECT_NEAR(elastic->stats().node_seconds,
                before + nodes * (depart_at - t0), 1e-6);
    dep->engine.RunUntil(depart_at + 20.0);
    EXPECT_NEAR(elastic->stats().node_seconds,
                before + nodes * (depart_at - t0) + (nodes - 1) * 20.0, 1e-6);

    EXPECT_EQ(dep->rm->total_vcores(),
              vcores - dep->cluster->node(victim).cores);
    for (const std::string& path : dep->dfs->ListFiles()) {
      auto info = dep->dfs->Stat(path);
      ASSERT_TRUE(info.ok());
      for (const DfsBlock& block : info->blocks) {
        for (NodeId replica : block.replicas) {
          EXPECT_NE(replica, victim) << path;
        }
      }
    }
    EXPECT_EQ(dep->staging_cache->NodeBytes(victim), 0);
    EXPECT_EQ(dep->result_cache->AuditAgainstDfs(), 0);
  }
}

// The RM refuses to retire a node hosting an AM; nothing else may have
// been touched by then — its staged bytes stay where they are.
TEST(ChurnDataServicesTest, RefusedDecommissionMigratesNothing) {
  auto d = ElasticDeployment({{"hiway/cache_staging_mb", "0"}});
  ASSERT_TRUE(d.ok());
  Deployment* dep = d->get();
  const NodeId am_node = 2;
  RecordingAm am;
  ASSERT_TRUE(
      dep->rm->RegisterApplication("am", &am, 1, 512, am_node).ok());
  StagingCache* staging = dep->staging_cache.get();
  staging->InsertPinned(am_node, dep->dfs->Intern("/staged"), 1, 100);
  staging->Unpin(am_node, dep->dfs->Intern("/staged"));

  EXPECT_FALSE(dep->elastic->DecommissionNode(am_node));
  EXPECT_TRUE(dep->rm->IsNodeAlive(am_node));
  EXPECT_EQ(staging->NodeBytes(am_node), 100);
  EXPECT_EQ(staging->stats().migrated, 0);
  EXPECT_EQ(dep->elastic->stats().nodes_decommissioned, 0);
}

// Pinned staging entries stay behind when the others migrate, and die
// with the retired node instead of counting forever.
TEST(ChurnDataServicesTest, DecommissionDropsPinnedStagingEntries) {
  auto d = ElasticDeployment({{"hiway/cache_staging_mb", "0"}});
  ASSERT_TRUE(d.ok());
  Deployment* dep = d->get();
  const NodeId victim = 3;
  StagingCache* staging = dep->staging_cache.get();
  staging->InsertPinned(victim, dep->dfs->Intern("/moves"), 1, 100);
  staging->Unpin(victim, dep->dfs->Intern("/moves"));
  staging->InsertPinned(victim, dep->dfs->Intern("/pinned"), 2, 50);

  ASSERT_TRUE(dep->elastic->DecommissionNode(victim));
  EXPECT_EQ(staging->stats().migrated, 1);
  EXPECT_EQ(staging->NodeBytes(victim), 0);
  EXPECT_EQ(staging->TotalBytes(), 100);
}

}  // namespace
}  // namespace hiway
