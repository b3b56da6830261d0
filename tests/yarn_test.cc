// Tests for the simulated YARN ResourceManager: capacity accounting,
// locality preferences, strict placement, blacklists, and node failure.

#include "src/yarn/yarn.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <random>

#include "src/yarn/rm_scheduler.h"
#include "tests/oracles/liveness_oracle.h"
#include "tests/oracles/rm_oracle.h"

namespace hiway {
namespace {

/// Records allocations for inspection.
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
  std::vector<std::pair<Container, int64_t>> allocations;
  std::vector<Container> lost;
  std::vector<ContainerLossReason> loss_reasons;
};

struct YarnRig {
  SimEngine engine;
  FlowNetwork net{&engine};
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<ResourceManager> rm;
  RecordingAm am;
  ApplicationId app = -1;

  explicit YarnRig(int nodes, int cores = 4, double memory_mb = 4096) {
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

TEST(YarnTest, AmContainerConsumesCapacity) {
  YarnRig rig(1, 4, 4096);
  EXPECT_EQ(rig.rm->free_vcores(0), 3);  // 4 - AM's 1
  EXPECT_DOUBLE_EQ(rig.rm->free_memory_mb(0), 4096 - 512);
  EXPECT_EQ(rig.rm->running_containers(), 1);
  auto node = rig.rm->AmNode(rig.app);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, 0);
}

TEST(YarnTest, RegisterFailsWithoutCapacity) {
  SimEngine engine;
  FlowNetwork net(&engine);
  NodeSpec node;
  node.cores = 1;
  node.memory_mb = 100;
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(1, node, 100.0));
  ResourceManager rm(&cluster, YarnOptions{});
  RecordingAm am;
  auto r = rm.RegisterApplication("fat-am", &am, 2, 50);
  EXPECT_TRUE(r.status().IsResourceExhausted());
}

TEST(YarnTest, RequestYieldsAllocationAfterDelay) {
  YarnRig rig(2);
  ContainerRequest request;
  request.vcores = 2;
  request.memory_mb = 1024;
  rig.rm->SubmitRequest(rig.app, request);
  rig.engine.Run();
  ASSERT_EQ(rig.am.allocations.size(), 1u);
  EXPECT_EQ(rig.am.allocations[0].first.vcores, 2);
  EXPECT_GE(rig.engine.Now(), rig.rm->options().allocation_delay_s);
}

TEST(YarnTest, CookiesComeBackWithAllocation) {
  YarnRig rig(2);
  ContainerRequest request;
  request.cookie = 777;
  rig.rm->SubmitRequest(rig.app, request);
  rig.engine.Run();
  ASSERT_EQ(rig.am.allocations.size(), 1u);
  EXPECT_EQ(rig.am.allocations[0].second, 777);
}

TEST(YarnTest, PreferredNodeHonoredWhenFree) {
  YarnRig rig(4);
  ContainerRequest request;
  request.preferred_node = 2;
  rig.rm->SubmitRequest(rig.app, request);
  rig.engine.Run();
  ASSERT_EQ(rig.am.allocations.size(), 1u);
  EXPECT_EQ(rig.am.allocations[0].first.node, 2);
}

TEST(YarnTest, RelaxedRequestFallsBackToOtherNodes) {
  YarnRig rig(2, 2, 2048);
  // Fill node 0 (it already hosts the AM: 1 of 2 cores used).
  ContainerRequest filler;
  filler.vcores = 1;
  filler.preferred_node = 0;
  rig.rm->SubmitRequest(rig.app, filler);
  rig.engine.Run();
  // Now prefer node 0 but accept elsewhere.
  ContainerRequest request;
  request.vcores = 2;
  request.preferred_node = 0;
  rig.rm->SubmitRequest(rig.app, request);
  rig.engine.Run();
  ASSERT_EQ(rig.am.allocations.size(), 2u);
  EXPECT_EQ(rig.am.allocations[1].first.node, 1);
}

TEST(YarnTest, StrictRequestWaitsForItsNode) {
  YarnRig rig(2, 2, 2048);
  // Node 1 full.
  ContainerRequest filler;
  filler.vcores = 2;
  filler.preferred_node = 1;
  filler.strict_locality = true;
  rig.rm->SubmitRequest(rig.app, filler);
  rig.engine.Run();
  ASSERT_EQ(rig.am.allocations.size(), 1u);
  ContainerId filler_container = rig.am.allocations[0].first.id;

  ContainerRequest strict;
  strict.vcores = 2;
  strict.preferred_node = 1;
  strict.strict_locality = true;
  rig.rm->SubmitRequest(rig.app, strict);
  rig.engine.RunUntil(rig.engine.Now() + 10.0);
  EXPECT_EQ(rig.am.allocations.size(), 1u);  // still waiting
  EXPECT_EQ(rig.rm->pending_requests(), 1);

  rig.rm->ReleaseContainer(filler_container);
  rig.engine.Run();
  ASSERT_EQ(rig.am.allocations.size(), 2u);
  EXPECT_EQ(rig.am.allocations[1].first.node, 1);
}

TEST(YarnTest, BlacklistAvoidsNodes) {
  YarnRig rig(3, 4, 4096);
  ContainerRequest request;
  request.blacklist = {0, 1};
  rig.rm->SubmitRequest(rig.app, request);
  rig.engine.Run();
  ASSERT_EQ(rig.am.allocations.size(), 1u);
  EXPECT_EQ(rig.am.allocations[0].first.node, 2);
}

TEST(YarnTest, ReleaseRestoresCapacity) {
  YarnRig rig(1, 4, 4096);
  ContainerRequest request;
  request.vcores = 3;
  rig.rm->SubmitRequest(rig.app, request);
  rig.engine.Run();
  ASSERT_EQ(rig.am.allocations.size(), 1u);
  EXPECT_EQ(rig.rm->free_vcores(0), 0);
  rig.rm->ReleaseContainer(rig.am.allocations[0].first.id);
  rig.engine.Run();
  EXPECT_EQ(rig.rm->free_vcores(0), 3);
}

TEST(YarnTest, NeverOvercommitsACore) {
  YarnRig rig(2, 3, 8192);
  for (int i = 0; i < 10; ++i) {
    ContainerRequest request;
    request.vcores = 2;
    request.memory_mb = 512;
    rig.rm->SubmitRequest(rig.app, request);
  }
  rig.engine.Run();
  // Capacity: node0 has 2 free (3 - AM), node1 has 3: fits 1 + 1
  // two-core containers.
  EXPECT_EQ(rig.am.allocations.size(), 2u);
  EXPECT_GE(rig.rm->free_vcores(0), 0);
  EXPECT_GE(rig.rm->free_vcores(1), 0);
  EXPECT_EQ(rig.rm->pending_requests(), 8);
}

TEST(YarnTest, CancelRequestsByCookie) {
  YarnRig rig(1, 1, 600);  // AM eats everything: requests stay pending
  ContainerRequest a;
  a.cookie = 1;
  ContainerRequest b;
  b.cookie = 2;
  rig.rm->SubmitRequest(rig.app, a);
  rig.rm->SubmitRequest(rig.app, b);
  rig.engine.Run();
  EXPECT_EQ(rig.rm->pending_requests(), 2);
  EXPECT_EQ(rig.rm->CancelRequests(rig.app, 1), 1);
  EXPECT_EQ(rig.rm->pending_requests(), 1);
}

TEST(YarnTest, KillNodeReportsLostContainers) {
  YarnRig rig(2, 4, 4096);
  ContainerRequest request;
  request.preferred_node = 1;
  rig.rm->SubmitRequest(rig.app, request);
  rig.engine.Run();
  ASSERT_EQ(rig.am.allocations.size(), 1u);
  rig.rm->KillNode(1);
  rig.engine.Run();
  ASSERT_EQ(rig.am.lost.size(), 1u);
  EXPECT_EQ(rig.am.lost[0].node, 1);
  EXPECT_FALSE(rig.rm->IsNodeAlive(1));
  EXPECT_EQ(rig.rm->free_vcores(1), 0);
  EXPECT_EQ(rig.rm->counters().lost_containers, 1);
}

TEST(YarnTest, NodeLossCarriesTheNodeLostReason) {
  YarnRig rig(2, 4, 4096);
  ContainerRequest request;
  request.preferred_node = 1;
  rig.rm->SubmitRequest(rig.app, request);
  rig.engine.Run();
  ASSERT_EQ(rig.am.allocations.size(), 1u);
  rig.rm->KillNode(1);
  // Losses are reported synchronously: no engine turn needed.
  ASSERT_EQ(rig.am.loss_reasons.size(), 1u);
  EXPECT_EQ(rig.am.loss_reasons[0], ContainerLossReason::kNodeLost);
}

TEST(YarnTest, KillTaskContainerReportsKilledReason) {
  YarnRig rig(2, 4, 4096);
  rig.rm->SubmitRequest(rig.app, ContainerRequest{});
  rig.engine.Run();
  ASSERT_EQ(rig.am.allocations.size(), 1u);
  ContainerId id = rig.am.allocations[0].first.id;
  EXPECT_TRUE(rig.rm->KillContainer(id));
  ASSERT_EQ(rig.am.lost.size(), 1u);
  EXPECT_EQ(rig.am.loss_reasons[0], ContainerLossReason::kKilled);
  // The node survives and the capacity is back.
  EXPECT_TRUE(rig.rm->IsNodeAlive(rig.am.lost[0].node));
  EXPECT_FALSE(rig.rm->KillContainer(999999));
}

TEST(YarnTest, ContainerLostBeforeDeliveryIsReRequested) {
  // The RM hands an allocation to the AM through a zero-delay event. A
  // container killed at the instant it is allocated must not reach the
  // AM; its request goes back into the queue and is served again.
  YarnRig rig(2);
  ContainerRequest request;
  request.vcores = 1;
  request.memory_mb = 256;
  request.cookie = 7;
  rig.rm->SubmitRequest(rig.app, request);
  ContainerId killed = kInvalidContainer;
  rig.engine.RunUntilPredicate([&] {
    if (killed != kInvalidContainer) return false;
    for (const Container& c : rig.rm->RunningContainers()) {
      if (c.app == rig.app && !c.is_am) {
        killed = c.id;
        EXPECT_TRUE(rig.am.allocations.empty());
        EXPECT_TRUE(rig.rm->KillContainer(c.id));
      }
    }
    return false;
  });
  ASSERT_NE(killed, kInvalidContainer);
  ASSERT_EQ(rig.am.lost.size(), 1u);
  EXPECT_EQ(rig.am.lost[0].id, killed);
  ASSERT_EQ(rig.am.allocations.size(), 1u);
  EXPECT_NE(rig.am.allocations[0].first.id, killed);
  EXPECT_EQ(rig.am.allocations[0].second, 7);
  EXPECT_EQ(rig.rm->running_containers(), 2);  // the AM + the replacement
  EXPECT_EQ(rig.rm->counters().requests, 1);
}

TEST(YarnTest, KillingTheAmNodeFailsTheApplication) {
  YarnRig rig(2, 4, 4096);
  // AM sits on node 0; give it a task container on node 1.
  ContainerRequest request;
  request.preferred_node = 1;
  rig.rm->SubmitRequest(rig.app, request);
  rig.engine.Run();
  ASSERT_EQ(rig.am.allocations.size(), 1u);

  std::vector<std::string> failures;
  rig.rm->SetAppFailureListener(
      [&](ApplicationId app, const std::string& name,
          const std::string& reason) {
        EXPECT_EQ(app, rig.app);
        EXPECT_EQ(name, "test-app");
        failures.push_back(reason);
      });
  rig.rm->KillNode(0);
  ASSERT_EQ(failures.size(), 1u);
  // The orphaned task container on node 1 was reclaimed WITHOUT a
  // callback to the dead master, and its resources freed.
  EXPECT_TRUE(rig.am.lost.empty());
  EXPECT_EQ(rig.rm->counters().reclaimed_containers, 2);  // AM + task
  EXPECT_EQ(rig.rm->counters().app_failures, 1);
  EXPECT_EQ(rig.rm->running_containers(), 0);
  EXPECT_EQ(rig.rm->free_vcores(1), 4);
}

TEST(YarnTest, KillContainerOnTheAmFailsTheApplication) {
  YarnRig rig(1, 4, 4096);
  int failures = 0;
  rig.rm->SetAppFailureListener(
      [&](ApplicationId, const std::string&, const std::string&) {
        ++failures;
      });
  std::vector<Container> running = rig.rm->RunningContainers();
  ASSERT_EQ(running.size(), 1u);
  ASSERT_TRUE(running[0].is_am);
  EXPECT_TRUE(rig.rm->KillContainer(running[0].id));
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(rig.rm->counters().app_failures, 1);
  EXPECT_EQ(rig.rm->running_containers(), 0);
}

TEST(YarnTest, HeartbeatTimeoutFailsASilentAm) {
  YarnRig rig(1, 4, 4096);
  std::vector<std::pair<double, std::string>> failures;
  rig.rm->SetAppFailureListener(
      [&](ApplicationId, const std::string&, const std::string& reason) {
        failures.emplace_back(rig.engine.Now(), reason);
      });
  // Registered at 0, the AM beat at 0, 1, 2 and 3 before dying at 3.5.
  rig.engine.ScheduleAt(3.5, [&] { rig.rm->AmSilent(rig.app); });
  rig.engine.Run();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].first, 3.0 + kAmLivenessTimeoutS);
  EXPECT_EQ(failures[0].second, "AM heartbeat timeout (10.0s)");
  EXPECT_EQ(rig.rm->counters().app_failures, 1);
  EXPECT_EQ(rig.rm->running_containers(), 0);
}

TEST(YarnTest, AmThatUnregistersWhileLiveIsNotFailed) {
  YarnRig rig(1, 4, 4096);
  int failures = 0;
  rig.rm->SetAppFailureListener(
      [&](ApplicationId, const std::string&, const std::string&) {
        ++failures;
      });
  // Live for 30 s — well past the 10 s timeout — then finish
  // (unregister) while still healthy; a late AmSilent is ignored.
  rig.engine.ScheduleAt(30.0, [&] {
    rig.rm->UnregisterApplication(rig.app);
    rig.rm->AmSilent(rig.app);
  });
  rig.engine.Run();
  EXPECT_EQ(failures, 0);
  EXPECT_GE(rig.engine.Now(), 30.0);
}

TEST(YarnTest, AmThatNeverFallsSilentIsNeverFailed) {
  YarnRig rig(1, 4, 4096);
  int failures = 0;
  rig.rm->SetAppFailureListener(
      [&](ApplicationId, const std::string&, const std::string&) {
        ++failures;
      });
  // A live AM costs the engine nothing: no beat or check is pending.
  EXPECT_EQ(rig.engine.pending_events(), 0u);
  rig.engine.ScheduleAt(100.0, [] {});
  rig.engine.Run();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(rig.engine.events_executed(), 1u);
}

TEST(YarnTest, SilentAmFailedMeanwhileIsNotFailedAgain) {
  YarnRig rig(2, 4, 4096);
  std::vector<std::string> reasons;
  rig.rm->SetAppFailureListener(
      [&](ApplicationId, const std::string&, const std::string& reason) {
        reasons.push_back(reason);
      });
  rig.engine.ScheduleAt(2.5, [&] { rig.rm->AmSilent(rig.app); });
  // The AM's node dies before the timeout lapses.
  rig.engine.ScheduleAt(5.0, [&] { rig.rm->KillNode(0); });
  rig.engine.Run();
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], "AM node 0 lost");
  EXPECT_EQ(rig.rm->counters().app_failures, 1);
}

TEST(YarnTest, DeadNodeReceivesNoAllocations) {
  YarnRig rig(2, 4, 4096);
  rig.rm->KillNode(1);
  for (int i = 0; i < 4; ++i) {
    rig.rm->SubmitRequest(rig.app, ContainerRequest{});
  }
  rig.engine.Run();
  for (const auto& [container, cookie] : rig.am.allocations) {
    EXPECT_EQ(container.node, 0);
  }
}

TEST(YarnTest, UnregisterDropsPendingRequestsAndFreesAm) {
  YarnRig rig(1, 2, 2048);
  rig.rm->SubmitRequest(rig.app, ContainerRequest{});
  rig.rm->SubmitRequest(rig.app, ContainerRequest{});
  rig.rm->UnregisterApplication(rig.app);
  rig.engine.Run();
  EXPECT_EQ(rig.rm->pending_requests(), 0);
  EXPECT_EQ(rig.rm->running_containers(), 0);
  EXPECT_EQ(rig.rm->free_vcores(0), 2);
}

TEST(YarnTest, FifoOrderAmongEqualRequests) {
  YarnRig rig(1, 3, 8192);
  for (int64_t i = 0; i < 2; ++i) {
    ContainerRequest request;
    request.cookie = i;
    rig.rm->SubmitRequest(rig.app, request);
  }
  rig.engine.Run();
  ASSERT_EQ(rig.am.allocations.size(), 2u);
  EXPECT_EQ(rig.am.allocations[0].second, 0);
  EXPECT_EQ(rig.am.allocations[1].second, 1);
}

TEST(YarnTest, CountersTrackActivity) {
  YarnRig rig(2);
  rig.rm->SubmitRequest(rig.app, ContainerRequest{});
  rig.engine.Run();
  rig.rm->ReleaseContainer(rig.am.allocations[0].first.id);
  rig.engine.Run();
  const RmCounters& c = rig.rm->counters();
  EXPECT_EQ(c.requests, 1);
  EXPECT_EQ(c.allocations, 2);  // AM container + worker container
  EXPECT_EQ(c.releases, 1);
}

// ------------------------------------------------- multi-tenant RM tests -

/// Two applications sharing one RM, optionally under a non-FIFO strategy
/// and custom queues.
struct MultiRig {
  SimEngine engine;
  FlowNetwork net{&engine};
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<ResourceManager> rm;
  RecordingAm am_a, am_b;
  ApplicationId app_a = -1, app_b = -1;

  MultiRig(int nodes, int cores, double memory_mb,
           const std::string& scheduler = "fifo",
           const std::vector<RmQueueConfig>& queues = {}) {
    NodeSpec node;
    node.cores = cores;
    node.memory_mb = memory_mb;
    cluster = std::make_unique<Cluster>(
        &engine, &net, ClusterSpec::Uniform(nodes, node, 1000.0));
    YarnOptions options;
    options.scheduler = *ParseRmPolicy(scheduler);
    rm = std::make_unique<ResourceManager>(cluster.get(), options);
    for (const RmQueueConfig& q : queues) rm->ConfigureQueue(q);
  }

  ApplicationId Register(const std::string& name, RecordingAm* am,
                         const std::string& queue = "default",
                         NodeId node = kInvalidNode) {
    auto result = rm->RegisterApplication(name, am, 1, 512, node, queue);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : -1;
  }
};

TEST(YarnMultiAppTest, TwoAmsCompeteForLastContainerFifoOrder) {
  MultiRig rig(1, 3, 8192);
  rig.app_a = rig.Register("a", &rig.am_a);
  rig.app_b = rig.Register("b", &rig.am_b);
  // One core left; whoever asked first gets it.
  rig.rm->SubmitRequest(rig.app_b, ContainerRequest{});
  rig.rm->SubmitRequest(rig.app_a, ContainerRequest{});
  rig.engine.Run();
  ASSERT_EQ(rig.am_b.allocations.size(), 1u);
  EXPECT_EQ(rig.am_a.allocations.size(), 0u);
  EXPECT_EQ(rig.rm->pending_requests(rig.app_a), 1);
  // Releasing b's container hands the core to the waiting app.
  rig.rm->ReleaseContainer(rig.am_b.allocations[0].first.id);
  rig.engine.Run();
  EXPECT_EQ(rig.am_a.allocations.size(), 1u);
}

TEST(YarnMultiAppTest, CancelRequestsTouchesOnlyTheCallingApp) {
  MultiRig rig(1, 2, 8192);  // AMs eat both cores: everything stays queued
  rig.app_a = rig.Register("a", &rig.am_a);
  rig.app_b = rig.Register("b", &rig.am_b);
  ContainerRequest request;
  request.cookie = 7;
  rig.rm->SubmitRequest(rig.app_a, request);
  rig.rm->SubmitRequest(rig.app_b, request);
  rig.engine.Run();
  EXPECT_EQ(rig.rm->CancelRequests(rig.app_a, 7), 1);
  EXPECT_EQ(rig.rm->pending_requests(rig.app_a), 0);
  EXPECT_EQ(rig.rm->pending_requests(rig.app_b), 1);
}

TEST(YarnMultiAppTest, KillNodeReportsLossesOnlyToTheOwningAm) {
  MultiRig rig(2, 4, 4096);
  rig.app_a = rig.Register("a", &rig.am_a, "default", 0);
  rig.app_b = rig.Register("b", &rig.am_b, "default", 0);
  ContainerRequest on_node1;
  on_node1.preferred_node = 1;
  on_node1.strict_locality = true;
  rig.rm->SubmitRequest(rig.app_a, on_node1);
  ContainerRequest on_node0;
  on_node0.preferred_node = 0;
  on_node0.strict_locality = true;
  rig.rm->SubmitRequest(rig.app_b, on_node0);
  rig.engine.Run();
  ASSERT_EQ(rig.am_a.allocations.size(), 1u);
  ASSERT_EQ(rig.am_b.allocations.size(), 1u);

  rig.rm->KillNode(1);
  rig.engine.Run();
  EXPECT_EQ(rig.am_a.lost.size(), 1u);
  EXPECT_EQ(rig.am_b.lost.size(), 0u);
  ASSERT_NE(rig.rm->app_stats(rig.app_a), nullptr);
  EXPECT_EQ(rig.rm->app_stats(rig.app_a)->counters.lost_containers, 1);
  EXPECT_EQ(rig.rm->app_stats(rig.app_b)->counters.lost_containers, 0);
}

TEST(YarnMultiAppTest, PerAppCountersAttributeActivity) {
  MultiRig rig(2, 4, 8192);
  rig.app_a = rig.Register("a", &rig.am_a);
  rig.app_b = rig.Register("b", &rig.am_b);
  rig.rm->SubmitRequest(rig.app_a, ContainerRequest{});
  rig.rm->SubmitRequest(rig.app_a, ContainerRequest{});
  rig.rm->SubmitRequest(rig.app_b, ContainerRequest{});
  rig.engine.Run();
  rig.rm->ReleaseContainer(rig.am_a.allocations[0].first.id);
  rig.engine.Run();
  const TenantStats* a = rig.rm->app_stats(rig.app_a);
  const TenantStats* b = rig.rm->app_stats(rig.app_b);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->counters.requests, 2);
  EXPECT_EQ(a->counters.allocations, 3);  // AM + 2 workers
  EXPECT_EQ(a->counters.releases, 1);
  EXPECT_EQ(b->counters.requests, 1);
  EXPECT_EQ(b->counters.allocations, 2);  // AM + 1 worker
  EXPECT_EQ(b->counters.releases, 0);
  // Waits are recorded per placement and include the allocation delay.
  ASSERT_EQ(a->wait_times_s.size(), 2u);
  EXPECT_GE(a->wait_times_s[0], rig.rm->options().allocation_delay_s);
  // Per-app stats survive unregistration (post-mortem attribution).
  rig.rm->UnregisterApplication(rig.app_a);
  rig.engine.Run();
  EXPECT_NE(rig.rm->app_stats(rig.app_a), nullptr);
  EXPECT_EQ(rig.rm->app_stats(rig.app_a)->counters.requests, 2);
}

TEST(YarnMultiAppTest, CapacitySchedulerServesQueueFurthestBelowGuarantee) {
  RmQueueConfig qa;
  qa.name = "qa";
  qa.guaranteed_share = 0.5;
  RmQueueConfig qb;
  qb.name = "qb";
  qb.guaranteed_share = 0.5;
  MultiRig rig(1, 5, 16384, "capacity", {qa, qb});
  rig.app_a = rig.Register("a", &rig.am_a, "qa");
  rig.app_b = rig.Register("b", &rig.am_b, "qb");
  // qa grabs two fillers: usage qa=3/5, qb=1/5, one core stays free.
  for (int i = 0; i < 2; ++i) {
    rig.rm->SubmitRequest(rig.app_a, ContainerRequest{});
  }
  rig.engine.Run();
  ASSERT_EQ(rig.am_a.allocations.size(), 2u);
  // Both ask for the last core, qa first. FIFO would serve qa; capacity
  // serves qb, the queue further below its guarantee.
  rig.rm->SubmitRequest(rig.app_a, ContainerRequest{});
  rig.rm->SubmitRequest(rig.app_b, ContainerRequest{});
  rig.engine.Run();
  EXPECT_EQ(rig.am_b.allocations.size(), 1u);
  EXPECT_EQ(rig.am_a.allocations.size(), 2u);
  EXPECT_EQ(rig.rm->pending_requests(rig.app_a), 1);
}

TEST(YarnMultiAppTest, CapacityMaxShareCapsAQueue) {
  RmQueueConfig qa;
  qa.name = "qa";
  qa.guaranteed_share = 0.8;
  RmQueueConfig qb;
  qb.name = "qb";
  qb.guaranteed_share = 0.2;
  qb.max_share = 0.2;  // hard cap: 1 of 5 cores
  MultiRig rig(1, 5, 16384, "capacity", {qa, qb});
  rig.app_a = rig.Register("a", &rig.am_a, "qa");
  rig.app_b = rig.Register("b", &rig.am_b, "qb");
  // qb's AM already uses its whole 20% share; its requests must wait even
  // though three cores are free.
  rig.rm->SubmitRequest(rig.app_b, ContainerRequest{});
  rig.engine.RunUntil(rig.engine.Now() + 10.0);
  EXPECT_EQ(rig.am_b.allocations.size(), 0u);
  EXPECT_EQ(rig.rm->pending_requests(rig.app_b), 1);
  // The uncapped queue still gets capacity.
  rig.rm->SubmitRequest(rig.app_a, ContainerRequest{});
  rig.engine.Run();
  EXPECT_EQ(rig.am_a.allocations.size(), 1u);
  EXPECT_EQ(rig.rm->pending_requests(rig.app_b), 1);
}

TEST(YarnMultiAppTest, FairSchedulerServesAppWithSmallestDominantShare) {
  MultiRig rig(1, 5, 16384, "fair");
  rig.app_a = rig.Register("a", &rig.am_a);
  rig.app_b = rig.Register("b", &rig.am_b);
  for (int i = 0; i < 2; ++i) {
    rig.rm->SubmitRequest(rig.app_a, ContainerRequest{});
  }
  rig.engine.Run();
  ASSERT_EQ(rig.am_a.allocations.size(), 2u);
  // Last core, app a asks first. DRF picks app b (dominant share 1/5 vs
  // 3/5).
  rig.rm->SubmitRequest(rig.app_a, ContainerRequest{});
  rig.rm->SubmitRequest(rig.app_b, ContainerRequest{});
  rig.engine.Run();
  EXPECT_EQ(rig.am_b.allocations.size(), 1u);
  EXPECT_EQ(rig.rm->pending_requests(rig.app_a), 1);
}

TEST(YarnMultiAppTest, StrictLocalityAndBlacklistSurviveStrategies) {
  for (const char* scheduler : {"capacity", "fair"}) {
    MultiRig rig(3, 2, 4096, scheduler);
    rig.app_a = rig.Register("a", &rig.am_a, "default", 0);
    // Blacklisting nodes 0 and 1 forces node 2 regardless of strategy.
    ContainerRequest request;
    request.blacklist = {0, 1};
    rig.rm->SubmitRequest(rig.app_a, request);
    rig.engine.Run();
    ASSERT_EQ(rig.am_a.allocations.size(), 1u) << scheduler;
    EXPECT_EQ(rig.am_a.allocations[0].first.node, 2) << scheduler;
    // A strict request for a full node waits instead of spilling.
    ContainerRequest strict;
    strict.vcores = 2;
    strict.preferred_node = 2;
    strict.strict_locality = true;
    rig.rm->SubmitRequest(rig.app_a, strict);
    rig.engine.RunUntil(rig.engine.Now() + 10.0);
    EXPECT_EQ(rig.am_a.allocations.size(), 1u) << scheduler;
    EXPECT_EQ(rig.rm->pending_requests(rig.app_a), 1) << scheduler;
  }
}

TEST(YarnMultiAppTest, FairnessIndexReactsToContention) {
  MultiRig rig(1, 3, 8192);
  rig.app_a = rig.Register("a", &rig.am_a);
  // A single tenant is always "fair".
  EXPECT_DOUBLE_EQ(rig.rm->TimeAveragedFairness(), 1.0);
  rig.app_b = rig.Register("b", &rig.am_b);
  // a holds the last core while b starves: instant fairness drops.
  rig.rm->SubmitRequest(rig.app_a, ContainerRequest{});
  rig.engine.Run();
  ASSERT_EQ(rig.am_a.allocations.size(), 1u);
  rig.rm->SubmitRequest(rig.app_b, ContainerRequest{});
  rig.engine.RunUntil(rig.engine.Now() + 20.0);
  double instant = RmOracle::InstantFairness(*rig.rm);
  EXPECT_LT(instant, 1.0);
  EXPECT_GT(instant, 0.0);
  EXPECT_LT(rig.rm->TimeAveragedFairness(), 1.0);
}

TEST(YarnMultiAppTest, QueueStatsAggregateTheirApplications) {
  MultiRig rig(2, 4, 8192);
  rig.app_a = rig.Register("a", &rig.am_a);
  rig.app_b = rig.Register("b", &rig.am_b);
  rig.rm->SubmitRequest(rig.app_a, ContainerRequest{});
  rig.rm->SubmitRequest(rig.app_b, ContainerRequest{});
  rig.engine.Run();
  const TenantStats* q = rig.rm->queue_stats("default");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->counters.requests, 2);
  EXPECT_EQ(q->counters.allocations, 4);  // 2 AMs + 2 workers
  EXPECT_EQ(q->usage.vcores, 4);
}

TEST(YarnMultiAppTest, UnknownSchedulerNameIsRejected) {
  auto result = ParseRmPolicy("shortest-job-first");
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().ToString().find("shortest-job-first"),
            std::string::npos)
      << result.status().ToString();
  for (RmPolicy policy :
       {RmPolicy::kFifo, RmPolicy::kCapacity, RmPolicy::kFair}) {
    auto round_trip = ParseRmPolicy(ToString(policy));
    ASSERT_TRUE(round_trip.ok()) << ToString(policy);
    EXPECT_EQ(*round_trip, policy);
  }
}

// -- Container preemption (docs/scheduling-model.md) ------------------------

/// Records each loss with its virtual timestamp (per-round assertions).
class TimestampingAm : public AmCallbacks {
 public:
  explicit TimestampingAm(SimEngine* engine) : engine_(engine) {}
  void OnContainerAllocated(const Container& container,
                            int64_t cookie) override {
    allocations.push_back({container, cookie});
  }
  void OnContainerLost(const Container& container,
                       ContainerLossReason reason) override {
    lost.push_back(container);
    loss_reasons.push_back(reason);
    loss_times.push_back(engine_->Now());
  }
  std::vector<std::pair<Container, int64_t>> allocations;
  std::vector<Container> lost;
  std::vector<ContainerLossReason> loss_reasons;
  std::vector<double> loss_times;

 private:
  SimEngine* engine_;
};

struct PreemptRig {
  SimEngine engine;
  FlowNetwork net{&engine};
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<ResourceManager> rm;
  RecordingAm am_a, am_b, am_c;
  ApplicationId app_a = -1, app_b = -1, app_c = -1;

  PreemptRig(int nodes, int cores, double memory_mb,
             const YarnOptions& options,
             const std::vector<RmQueueConfig>& queues) {
    NodeSpec node;
    node.cores = cores;
    node.memory_mb = memory_mb;
    cluster = std::make_unique<Cluster>(
        &engine, &net, ClusterSpec::Uniform(nodes, node, 1000.0));
    rm = std::make_unique<ResourceManager>(cluster.get(), options);
    for (const RmQueueConfig& q : queues) rm->ConfigureQueue(q);
  }

  ApplicationId Register(const std::string& name, AmCallbacks* am,
                         const std::string& queue) {
    auto result =
        rm->RegisterApplication(name, am, 1, 512, kInvalidNode, queue);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : -1;
  }
};

YarnOptions PreemptionOptions(int max_per_round = 2) {
  YarnOptions options;
  options.scheduler = RmPolicy::kCapacity;
  options.preemption = true;
  options.preemption_grace_s = 1.0;
  options.max_preempt_per_round = max_per_round;
  return options;
}

ContainerRequest TaskRequest(int priority = 0) {
  ContainerRequest r;
  r.vcores = 1;
  r.memory_mb = 1024;
  r.priority = priority;
  return r;
}

TEST(YarnPreemptionTest, RestoresStarvedQueueGuarantee) {
  PreemptRig rig(1, 6, 8192, PreemptionOptions(),
                 {RmQueueConfig{"qa", 0.5, 1.0, 1.0},
                  RmQueueConfig{"qb", 0.5, 1.0, 1.0}});
  rig.app_a = rig.Register("a", &rig.am_a, "qa");
  rig.app_b = rig.Register("b", &rig.am_b, "qb");
  // Queue qa grabs every free core while qb is idle...
  for (int i = 0; i < 4; ++i) {
    rig.rm->SubmitRequest(rig.app_a, TaskRequest());
  }
  rig.engine.Run();
  ASSERT_EQ(rig.am_a.allocations.size(), 4u);
  // ...then qb (guaranteed half the cluster) shows up with demand.
  rig.rm->SubmitRequest(rig.app_b, TaskRequest());
  rig.rm->SubmitRequest(rig.app_b, TaskRequest());
  rig.engine.Run();
  // The grace period expires, two of qa's task containers are preempted,
  // and qb climbs back to its guaranteed share.
  EXPECT_EQ(rig.am_b.allocations.size(), 2u);
  ASSERT_EQ(rig.am_a.lost.size(), 2u);
  for (ContainerLossReason reason : rig.am_a.loss_reasons) {
    EXPECT_EQ(reason, ContainerLossReason::kPreempted);
  }
  EXPECT_EQ(rig.rm->counters().preempted_containers, 2);
  EXPECT_EQ(rig.rm->counters().lost_containers, 0);
  EXPECT_GT(rig.rm->counters().preempted_work_s, 0.0);
  // qa's AM container survived the round.
  EXPECT_TRUE(rig.rm->AmNode(rig.app_a).ok());
  const TenantStats* qa = rig.rm->queue_stats("qa");
  ASSERT_NE(qa, nullptr);
  EXPECT_EQ(qa->counters.preempted_containers, 2);
  // The starvation episode closed and its restoration latency (>= the
  // grace period, since preemption had to step in) was recorded.
  const TenantStats* qb = rig.rm->queue_stats("qb");
  ASSERT_NE(qb, nullptr);
  ASSERT_EQ(qb->restoration_latency_s.size(), 1u);
  EXPECT_GE(qb->restoration_latency_s[0],
            rig.rm->options().preemption_grace_s);
  EXPECT_GT(qb->time_under_guarantee_s, 0.0);
}

TEST(YarnPreemptionTest, NeverTouchesAmContainers) {
  PreemptRig rig(1, 4, 8192, PreemptionOptions(),
                 {RmQueueConfig{"qa", 0.25, 1.0, 1.0},
                  RmQueueConfig{"qb", 0.75, 1.0, 1.0}});
  // qa holds over its guarantee purely with AM containers (2/4 cores).
  rig.app_a = rig.Register("a", &rig.am_a, "qa");
  rig.app_c = rig.Register("c", &rig.am_c, "qa");
  rig.app_b = rig.Register("b", &rig.am_b, "qb");
  // qb wants two more cores but only one is free: it stays starved past
  // the grace period — and the RM must NOT kill anyone's AM for it.
  rig.rm->SubmitRequest(rig.app_b, TaskRequest());
  rig.rm->SubmitRequest(rig.app_b, TaskRequest());
  rig.engine.Run();
  EXPECT_EQ(rig.am_b.allocations.size(), 1u);
  EXPECT_EQ(rig.rm->counters().preempted_containers, 0);
  EXPECT_EQ(rig.rm->counters().app_failures, 0);
  EXPECT_TRUE(rig.am_a.lost.empty());
  EXPECT_TRUE(rig.am_c.lost.empty());
  EXPECT_TRUE(rig.rm->AmNode(rig.app_a).ok());
  EXPECT_TRUE(rig.rm->AmNode(rig.app_c).ok());
  // qb's unmet demand is still pending (no victims existed).
  const TenantStats* qb = rig.rm->queue_stats("qb");
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qb->pending_requests, 1);
}

TEST(YarnPreemptionTest, TakesLowestPriorityContainersFirst) {
  PreemptRig rig(1, 6, 8192, PreemptionOptions(),
                 {RmQueueConfig{"qa", 0.5, 1.0, 1.0},
                  RmQueueConfig{"qb", 0.5, 1.0, 1.0}});
  rig.app_a = rig.Register("a", &rig.am_a, "qa");
  rig.app_b = rig.Register("b", &rig.am_b, "qb");
  // The low-priority containers are OLDER: if selection used age alone
  // it would kill the high-priority pair instead.
  rig.rm->SubmitRequest(rig.app_a, TaskRequest(/*priority=*/1));
  rig.rm->SubmitRequest(rig.app_a, TaskRequest(/*priority=*/1));
  rig.engine.Run();
  rig.rm->SubmitRequest(rig.app_a, TaskRequest(/*priority=*/5));
  rig.rm->SubmitRequest(rig.app_a, TaskRequest(/*priority=*/5));
  rig.engine.Run();
  ASSERT_EQ(rig.am_a.allocations.size(), 4u);
  rig.rm->SubmitRequest(rig.app_b, TaskRequest());
  rig.rm->SubmitRequest(rig.app_b, TaskRequest());
  rig.engine.Run();
  ASSERT_EQ(rig.am_a.lost.size(), 2u);
  for (const Container& victim : rig.am_a.lost) {
    EXPECT_EQ(victim.priority, 1);
  }
  EXPECT_EQ(rig.am_b.allocations.size(), 2u);
}

TEST(YarnPreemptionTest, HonoursPerRoundBound) {
  PreemptRig rig(1, 8, 16384, PreemptionOptions(/*max_per_round=*/1),
                 {RmQueueConfig{"qa", 0.25, 1.0, 1.0},
                  RmQueueConfig{"qb", 0.5, 1.0, 1.0}});
  TimestampingAm am_a(&rig.engine);
  rig.app_a = rig.Register("a", &am_a, "qa");
  rig.app_b = rig.Register("b", &rig.am_b, "qb");
  for (int i = 0; i < 6; ++i) {
    rig.rm->SubmitRequest(rig.app_a, TaskRequest());
  }
  rig.engine.Run();
  ASSERT_EQ(am_a.allocations.size(), 6u);
  for (int i = 0; i < 4; ++i) {
    rig.rm->SubmitRequest(rig.app_b, TaskRequest());
  }
  rig.engine.Run();
  // qb's deficit is 3 cores (guarantee 4, AM holds 1): with one kill per
  // round it takes three separate rounds to restore the guarantee.
  EXPECT_EQ(rig.rm->counters().preempted_containers, 3);
  ASSERT_EQ(am_a.loss_times.size(), 3u);
  EXPECT_LT(am_a.loss_times[0], am_a.loss_times[1]);
  EXPECT_LT(am_a.loss_times[1], am_a.loss_times[2]);
  EXPECT_EQ(rig.am_b.allocations.size(), 3u);
  // At its guarantee, qb stops reclaiming even though demand remains.
  const TenantStats* qb = rig.rm->queue_stats("qb");
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qb->pending_requests, 1);
  EXPECT_EQ(qb->usage.vcores, 4);
}

TEST(YarnPreemptionTest, DisabledPreemptionStillRecordsStarvation) {
  YarnOptions options = PreemptionOptions();
  options.preemption = false;
  PreemptRig rig(1, 6, 8192, options,
                 {RmQueueConfig{"qa", 0.5, 1.0, 1.0},
                  RmQueueConfig{"qb", 0.5, 1.0, 1.0}});
  rig.app_a = rig.Register("a", &rig.am_a, "qa");
  rig.app_b = rig.Register("b", &rig.am_b, "qb");
  for (int i = 0; i < 4; ++i) {
    rig.rm->SubmitRequest(rig.app_a, TaskRequest());
  }
  rig.engine.Run();
  rig.rm->SubmitRequest(rig.app_b, TaskRequest());
  rig.engine.Run();
  // Nothing was killed...
  EXPECT_EQ(rig.rm->counters().preempted_containers, 0);
  EXPECT_TRUE(rig.am_a.lost.empty());
  // ...but once qa releases a container, qb's episode closes and the
  // restoration latency is recorded (the preemption-off baseline the
  // bench compares against).
  rig.rm->ReleaseContainer(rig.am_a.allocations[0].first.id);
  rig.engine.Run();
  EXPECT_EQ(rig.am_b.allocations.size(), 1u);
  const TenantStats* qb = rig.rm->queue_stats("qb");
  ASSERT_NE(qb, nullptr);
  ASSERT_EQ(qb->restoration_latency_s.size(), 1u);
  EXPECT_GT(qb->restoration_latency_s[0], 0.0);
}

TEST(YarnPreemptionTest, VictimSelectionOrdersAndExemptions) {
  std::map<std::string, ResourceManager::QueueState> queues;
  queues["hog"].config = RmQueueConfig{"hog", 0.2, 1.0, 1.0};
  queues["mild"].config = RmQueueConfig{"mild", 0.3, 1.0, 1.0};
  queues["starved"].config = RmQueueConfig{"starved", 0.5, 1.0, 1.0};
  queues["hog"].stats.usage = {6, 6144.0};      // share 0.6, surplus 0.4
  queues["mild"].stats.usage = {3, 3072.0};     // exactly at guarantee
  queues["starved"].stats.usage = {1, 1024.0};  // far below guarantee
  RmTenancyView view;
  view.total_vcores = 10;
  view.total_memory_mb = 10240.0;
  view.queues = &queues;

  std::string hog = "hog", mild = "mild", starved = "starved";
  auto cand = [](ContainerId id, const std::string* queue, bool is_am,
                 int priority, double allocated_at) {
    PreemptionCandidate c;
    c.container.id = id;
    c.container.vcores = 1;
    c.container.memory_mb = 1024.0;
    c.container.is_am = is_am;
    c.container.priority = priority;
    c.container.allocated_at = allocated_at;
    c.queue = queue;
    return c;
  };
  std::vector<PreemptionCandidate> candidates = {
      cand(1, &hog, /*is_am=*/true, 0, 0.0),
      cand(2, &hog, false, /*priority=*/5, /*allocated_at=*/10.0),
      cand(3, &hog, false, /*priority=*/1, /*allocated_at=*/5.0),
      cand(4, &hog, false, /*priority=*/1, /*allocated_at=*/8.0),
      cand(5, &mild, false, /*priority=*/0, /*allocated_at=*/1.0),
      cand(6, &starved, false, /*priority=*/0, /*allocated_at=*/1.0),
  };

  // Lowest priority first within the donor, youngest breaking the tie.
  ResourceUsage needed{2, 2048.0};
  std::vector<ContainerId> victims =
      SelectPreemptionVictims(candidates, view, starved, needed, 10);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 4);
  EXPECT_EQ(victims[1], 3);

  // The per-round bound truncates the list.
  victims = SelectPreemptionVictims(candidates, view, starved, needed, 1);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 4);

  // Even unbounded demand never claims AM containers, the starved
  // queue's own containers, or donors at/below their guarantee.
  victims = SelectPreemptionVictims(candidates, view, starved,
                                    ResourceUsage{100, 102400.0}, 100);
  EXPECT_EQ(victims, (std::vector<ContainerId>{4, 3, 2}));
}

TEST(YarnPreemptionTest, LossReasonToString) {
  EXPECT_STREQ(ToString(ContainerLossReason::kPreempted), "preempted");
}

// ---------------------------------------------------------------------
// AM liveness lease vs the polling oracle (tests/oracles/liveness_oracle.h).
// ---------------------------------------------------------------------

struct LivenessOutcome {
  double failed_at = -1.0;
  std::string reason;
  int failures = 0;
};

/// Registers an AM at `phase` and crashes it at `crash`. The crash event
/// is queued before the run starts — before any beat, as the fault
/// injector queues it — unless `queue_at` >= 0 queues it from an event at
/// that time. `lease` picks ResourceManager::AmSilent over the oracle.
LivenessOutcome RunLiveness(bool lease, double phase, double crash,
                            double queue_at = -1.0) {
  SimEngine engine;
  FlowNetwork net(&engine);
  NodeSpec node;
  node.cores = 4;
  node.memory_mb = 4096;
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(1, node, 1000.0));
  ResourceManager rm(&cluster, YarnOptions{});
  RecordingAm am;
  ApplicationId app = -1;
  LivenessOutcome out;
  auto record = [&](const std::string& reason) {
    out.failed_at = engine.Now();
    out.reason = reason;
    ++out.failures;
  };
  rm.SetAppFailureListener(
      [&](ApplicationId, const std::string&, const std::string& reason) {
        record(reason);
      });
  PollingLivenessOracle oracle(&engine, record);
  engine.ScheduleAt(phase, [&] {
    if (!lease) {
      oracle.Register();
      return;
    }
    auto registered = rm.RegisterApplication("am", &am, 1, 512);
    ASSERT_TRUE(registered.ok());
    app = *registered;
  });
  auto crash_now = [&] {
    if (lease) {
      rm.AmSilent(app);
    } else {
      oracle.Crash();
    }
  };
  if (queue_at < 0.0) {
    engine.ScheduleAt(crash, crash_now);
  } else {
    engine.ScheduleAt(queue_at,
                      [&] { engine.ScheduleAt(crash, crash_now); });
  }
  engine.Run();
  return out;
}

/// The AM's k-th beat after registering at `phase`, by the same repeated
/// additions its ticks were scheduled with.
double BeatTime(double phase, int k) {
  double t = phase;
  for (int i = 0; i < k; ++i) t += kAmHeartbeatS;
  return t;
}

TEST(LivenessLeaseTest, MatchesThePollingOracleOnRandomCrashes) {
  std::mt19937_64 rng(20170321);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  int on_beat = 0;
  for (int draw = 0; draw < 1500; ++draw) {
    // Integer phases, fractional ones, and large ones whose repeated
    // additions drift away from phase + k.
    double phase;
    switch (draw % 3) {
      case 0: phase = static_cast<double>(rng() % 20); break;
      case 1: phase = 100.0 * unit(rng); break;
      default: phase = 1e3 + 1e5 * unit(rng); break;
    }
    int k = static_cast<int>(rng() % 300);
    double crash;
    // Anywhere, exactly on a beat, exactly on a liveness check, and one
    // ulp either side of a beat.
    double beat = BeatTime(phase, k);
    switch ((draw / 3) % 5) {
      case 0: crash = phase + 300.0 * unit(rng); break;
      case 1: crash = beat; ++on_beat; break;
      case 2: crash = beat + kAmLivenessTimeoutS; break;
      case 3: crash = std::nextafter(beat + kAmHeartbeatS, 0.0); break;
      default: crash = std::nextafter(beat, 1e300); break;
    }
    LivenessOutcome oracle = RunLiveness(/*lease=*/false, phase, crash);
    LivenessOutcome lease = RunLiveness(/*lease=*/true, phase, crash);
    ASSERT_EQ(oracle.failures, 1) << "phase " << phase << " crash " << crash;
    ASSERT_EQ(lease.failures, 1) << "phase " << phase << " crash " << crash;
    // Bit-equal failure times, identical reasons.
    ASSERT_EQ(std::memcmp(&oracle.failed_at, &lease.failed_at, sizeof(double)),
              0)
        << "phase " << phase << " crash " << crash << ": oracle "
        << oracle.failed_at << " lease " << lease.failed_at;
    ASSERT_EQ(oracle.reason, lease.reason);
  }
  EXPECT_GE(on_beat, 250);
}

// A crash queued within the last beat period that lands exactly on a beat
// is the one case the two disagree on: the beat was queued first, so the
// polling AM still sent it, while the lease counts every beat due at the
// crash instant as missed (right for crashes queued earlier, such as every
// injected one). The lease then fails the AM one period early.
TEST(LivenessLeaseTest,
     CrashQueuedWithinTheLastPeriodOnABeatIsTheKnownDivergence) {
  const double phase = 0.3;
  const double beat4 = BeatTime(phase, 4);
  const double beat5 = BeatTime(phase, 5);
  // Queued at 4.8, after the beat at 5.3 was: the two disagree.
  LivenessOutcome oracle =
      RunLiveness(/*lease=*/false, phase, beat5, /*queue_at=*/4.8);
  LivenessOutcome lease =
      RunLiveness(/*lease=*/true, phase, beat5, /*queue_at=*/4.8);
  EXPECT_EQ(oracle.failed_at, beat5 + kAmLivenessTimeoutS);
  EXPECT_EQ(lease.failed_at, beat4 + kAmLivenessTimeoutS);
  // Queued at 4.0, before that beat: both fail at beat 4 + timeout.
  oracle = RunLiveness(/*lease=*/false, phase, beat5, /*queue_at=*/4.0);
  lease = RunLiveness(/*lease=*/true, phase, beat5, /*queue_at=*/4.0);
  EXPECT_EQ(oracle.failed_at, beat4 + kAmLivenessTimeoutS);
  EXPECT_EQ(lease.failed_at, beat4 + kAmLivenessTimeoutS);
}

}  // namespace
}  // namespace hiway
