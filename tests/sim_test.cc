// Tests for the discrete-event engine and the max-min fair flow network —
// the performance model everything else rests on.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/random.h"
#include "src/sim/cluster.h"
#include "src/sim/engine.h"
#include "src/sim/flow.h"
#include "src/sim/load_injector.h"

namespace hiway {
namespace {

// ----------------------------------------------------------------- engine -

TEST(SimEngineTest, ExecutesInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.ScheduleAt(3.0, [&] { order.push_back(3); });
  engine.ScheduleAt(1.0, [&] { order.push_back(1); });
  engine.ScheduleAt(2.0, [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.Now(), 3.0);
}

TEST(SimEngineTest, FifoWithinSameTimestamp) {
  SimEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  engine.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimEngineTest, EventsCanScheduleEvents) {
  SimEngine engine;
  int fired = 0;
  engine.ScheduleAt(1.0, [&] {
    ++fired;
    engine.ScheduleAfter(1.0, [&] { ++fired; });
  });
  engine.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(engine.Now(), 2.0);
}

TEST(SimEngineTest, CancelPreventsExecution) {
  SimEngine engine;
  bool fired = false;
  EventId id = engine.ScheduleAt(1.0, [&] { fired = true; });
  engine.Cancel(id);
  engine.Run();
  EXPECT_FALSE(fired);
}

TEST(SimEngineTest, PastTimestampsClampToNow) {
  SimEngine engine;
  engine.ScheduleAt(5.0, [] {});
  engine.Run();
  double when = -1;
  engine.ScheduleAt(1.0, [&] { when = engine.Now(); });
  engine.Run();
  EXPECT_DOUBLE_EQ(when, 5.0);
}

TEST(SimEngineTest, RunUntilStopsAndAdvancesClock) {
  SimEngine engine;
  int fired = 0;
  engine.ScheduleAt(1.0, [&] { ++fired; });
  engine.ScheduleAt(10.0, [&] { ++fired; });
  engine.RunUntil(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.Now(), 5.0);
  engine.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimEngineTest, RunUntilPredicate) {
  SimEngine engine;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    engine.ScheduleAt(i, [&] { ++count; });
  }
  bool satisfied = engine.RunUntilPredicate([&] { return count == 4; });
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(count, 4);
}

// ------------------------------------------------------------ flow network -

TEST(FlowTest, SingleFlowRunsAtCapacity) {
  SimEngine engine;
  FlowNetwork net(&engine);
  ResourceId r = net.AddResource("disk", 100.0);
  double completed_at = -1;
  net.StartFlow({{r}, 500.0, kNoRateCap, 1.0,
                 [&] { completed_at = engine.Now(); }});
  engine.Run();
  EXPECT_NEAR(completed_at, 5.0, 1e-6);
}

TEST(FlowTest, TwoFlowsShareFairly) {
  SimEngine engine;
  FlowNetwork net(&engine);
  ResourceId r = net.AddResource("nic", 100.0);
  double t1 = -1, t2 = -1;
  net.StartFlow({{r}, 500.0, kNoRateCap, 1.0, [&] { t1 = engine.Now(); }});
  net.StartFlow({{r}, 500.0, kNoRateCap, 1.0, [&] { t2 = engine.Now(); }});
  engine.Run();
  // Both run at 50 until one finishes; identical demands finish together.
  EXPECT_NEAR(t1, 10.0, 1e-6);
  EXPECT_NEAR(t2, 10.0, 1e-6);
}

TEST(FlowTest, ShortFlowFreesBandwidthForLong) {
  SimEngine engine;
  FlowNetwork net(&engine);
  ResourceId r = net.AddResource("nic", 100.0);
  double t_short = -1, t_long = -1;
  net.StartFlow({{r}, 100.0, kNoRateCap, 1.0,
                 [&] { t_short = engine.Now(); }});
  net.StartFlow({{r}, 500.0, kNoRateCap, 1.0,
                 [&] { t_long = engine.Now(); }});
  engine.Run();
  // Short: 100 at rate 50 -> t=2. Long: 100 done by t=2, 400 at 100 -> t=6.
  EXPECT_NEAR(t_short, 2.0, 1e-6);
  EXPECT_NEAR(t_long, 6.0, 1e-6);
}

TEST(FlowTest, RateCapLimitsFlow) {
  SimEngine engine;
  FlowNetwork net(&engine);
  ResourceId cpu = net.AddResource("cpu", 8.0);
  double t = -1;
  // A 2-thread task on an 8-core node: rate 2, not 8.
  net.StartFlow({{cpu}, 10.0, 2.0, 1.0, [&] { t = engine.Now(); }});
  engine.Run();
  EXPECT_NEAR(t, 5.0, 1e-6);
}

TEST(FlowTest, CapLeftoverGoesToOthers) {
  SimEngine engine;
  FlowNetwork net(&engine);
  ResourceId r = net.AddResource("r", 100.0);
  double t_capped = -1, t_free = -1;
  net.StartFlow({{r}, 100.0, 10.0, 1.0, [&] { t_capped = engine.Now(); }});
  net.StartFlow({{r}, 450.0, kNoRateCap, 1.0, [&] { t_free = engine.Now(); }});
  engine.Run();
  // Capped at 10 -> t=10; the other gets 90 -> 450/90 = 5.
  EXPECT_NEAR(t_capped, 10.0, 1e-6);
  EXPECT_NEAR(t_free, 5.0, 1e-6);
}

TEST(FlowTest, MultiResourceFlowBottlenecks) {
  SimEngine engine;
  FlowNetwork net(&engine);
  ResourceId disk = net.AddResource("disk", 200.0);
  ResourceId nic = net.AddResource("nic", 50.0);
  double t = -1;
  net.StartFlow({{disk, nic}, 100.0, kNoRateCap, 1.0,
                 [&] { t = engine.Now(); }});
  engine.Run();
  EXPECT_NEAR(t, 2.0, 1e-6);  // limited by the 50 MB/s NIC
}

TEST(FlowTest, WeightedSharing) {
  SimEngine engine;
  FlowNetwork net(&engine);
  ResourceId r = net.AddResource("cpu", 4.0);
  double t_heavy = -1, t_light = -1;
  // Weight 3 vs weight 1: rates 3 and 1.
  FlowSpec heavy;
  heavy.resources = {r};
  heavy.demand = 30.0;
  heavy.weight = 3.0;
  heavy.on_complete = [&] { t_heavy = engine.Now(); };
  FlowSpec light;
  light.resources = {r};
  light.demand = 30.0;
  light.weight = 1.0;
  light.on_complete = [&] { t_light = engine.Now(); };
  net.StartFlow(std::move(heavy));
  net.StartFlow(std::move(light));
  engine.Run();
  EXPECT_NEAR(t_heavy, 10.0, 1e-6);   // 30 at rate 3
  // After t=10 the light flow gets the whole resource (cap: none):
  // 10 done by t=10, then 20 at rate 4 -> t=15.
  EXPECT_NEAR(t_light, 15.0, 1e-6);
}

TEST(FlowTest, InfiniteFlowNeverCompletesButConsumes) {
  SimEngine engine;
  FlowNetwork net(&engine);
  ResourceId r = net.AddResource("cpu", 2.0);
  double t = -1;
  net.StartFlow({{r}, kInfiniteDemand, 1.0, 1.0, [] { FAIL(); }});
  net.StartFlow({{r}, 10.0, kNoRateCap, 1.0, [&] { t = engine.Now(); }});
  engine.Run();
  // The hog takes 1 core; the finite flow gets the other: 10/1 = 10.
  EXPECT_NEAR(t, 10.0, 1e-6);
  EXPECT_EQ(net.active_flows(), 1u);
}

TEST(FlowTest, CancelRebalancesSurvivors) {
  SimEngine engine;
  FlowNetwork net(&engine);
  ResourceId r = net.AddResource("r", 100.0);
  double t = -1;
  FlowId hog = net.StartFlow({{r}, kInfiniteDemand, kNoRateCap, 1.0, {}});
  net.StartFlow({{r}, 300.0, kNoRateCap, 1.0, [&] { t = engine.Now(); }});
  engine.ScheduleAt(2.0, [&] { net.CancelFlow(hog); });
  engine.Run();
  // 2s at 50 = 100 done, remaining 200 at 100 -> t = 4.
  EXPECT_NEAR(t, 4.0, 1e-6);
}

TEST(FlowTest, CapacityChangeMidFlight) {
  SimEngine engine;
  FlowNetwork net(&engine);
  ResourceId r = net.AddResource("r", 100.0);
  double t = -1;
  net.StartFlow({{r}, 400.0, kNoRateCap, 1.0, [&] { t = engine.Now(); }});
  engine.ScheduleAt(2.0, [&] { net.SetCapacity(r, 50.0); });
  engine.Run();
  // 200 at 100 by t=2, then 200 at 50 -> t=6.
  EXPECT_NEAR(t, 6.0, 1e-6);
}

// A finite flow capped at rate 0 would never complete and no completion
// event would ever be scheduled: a silent hang, so it is rejected.
TEST(FlowDeathTest, ZeroRateCapOnFiniteFlowIsRejected) {
  SimEngine engine;
  FlowNetwork net(&engine);
  ResourceId r = net.AddResource("cpu", 4.0);
  EXPECT_DEATH(net.StartFlow({{r}, 10.0, 0.0, 1.0, {}}), "rate_cap");
  // Permanent background flows may idle at a zero cap.
  net.StartFlow({{r}, kInfiniteDemand, 0.0, 1.0, {}});
  EXPECT_EQ(net.active_flows(), 1u);
}

TEST(FlowDeathTest, NegativeCapacityIsRejected) {
  SimEngine engine;
  FlowNetwork net(&engine);
  ResourceId r = net.AddResource("r", 100.0);
  EXPECT_DEATH(net.SetCapacity(r, -1.0), "capacity");
  net.SetCapacity(r, 0.0);
  EXPECT_EQ(net.Capacity(r), 0.0);
}

TEST(FlowTest, StatsTrackUtilisation) {
  SimEngine engine;
  FlowNetwork net(&engine);
  ResourceId r = net.AddResource("disk", 100.0);
  net.StartFlow({{r}, 200.0, kNoRateCap, 1.0, {}});
  engine.Run();                 // busy 0..2
  engine.ScheduleAt(4.0, [] {});  // idle 2..4
  engine.Run();
  ResourceStats stats = net.Stats(r);
  EXPECT_NEAR(stats.mean_rate, 50.0, 1e-6);      // 200 MB over 4 s
  EXPECT_NEAR(stats.busy_fraction, 0.5, 1e-6);
  EXPECT_NEAR(stats.peak_rate, 100.0, 1e-6);
  net.ResetStats();
  EXPECT_NEAR(net.Stats(r).mean_rate, 0.0, 1e-9);
}

// Property: rates never exceed capacity and are work-conserving.
class FlowInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(FlowInvariantTest, CapacityRespectedAndWorkConserving) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  SimEngine engine;
  FlowNetwork net(&engine);
  std::vector<ResourceId> resources;
  for (int i = 0; i < 5; ++i) {
    resources.push_back(
        net.AddResource("r", 10.0 + 90.0 * rng.NextDouble()));
  }
  int completed = 0;
  const int kFlows = 40;
  for (int i = 0; i < kFlows; ++i) {
    FlowSpec spec;
    size_t k = 1 + rng.UniformInt(3);
    for (size_t j = 0; j < k; ++j) {
      ResourceId r = resources[rng.UniformInt(resources.size())];
      if (std::find(spec.resources.begin(), spec.resources.end(), r) ==
          spec.resources.end()) {
        spec.resources.push_back(r);
      }
    }
    spec.demand = 10.0 + 200.0 * rng.NextDouble();
    if (rng.NextDouble() < 0.3) spec.rate_cap = 1.0 + 20.0 * rng.NextDouble();
    spec.weight = rng.NextDouble() < 0.2 ? 4.0 : 1.0;
    spec.on_complete = [&completed] { ++completed; };
    double start = 20.0 * rng.NextDouble();
    engine.ScheduleAt(start, [&net, spec] { net.StartFlow(spec); });
  }
  // Invariant check after every event: per-resource allocated rate <=
  // capacity (within epsilon).
  bool ok = true;
  engine.RunUntilPredicate([&] {
    for (ResourceId r : resources) {
      // current_rate is internal; Stats' peak covers it cumulatively.
      ResourceStats s = net.Stats(r);
      if (s.peak_rate > s.capacity + 1e-6) ok = false;
    }
    return !ok;
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(completed, kFlows);  // every flow eventually completes
  EXPECT_EQ(net.active_flows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowInvariantTest,
                         ::testing::Range(1, 13));

// ----------------------------------------------------------------- cluster -

TEST(ClusterTest, UniformSpecNamesNodes) {
  SimEngine engine;
  FlowNetwork net(&engine);
  NodeSpec node;
  node.cores = 4;
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(3, node, 1000.0));
  EXPECT_EQ(cluster.num_nodes(), 3);
  EXPECT_EQ(cluster.node(0).name, "node-000");
  EXPECT_EQ(cluster.node(2).name, "node-002");
  EXPECT_DOUBLE_EQ(net.Capacity(cluster.cpu(1)), 4.0);
  EXPECT_DOUBLE_EQ(net.Capacity(cluster.switch_resource()), 1000.0);
  EXPECT_FALSE(cluster.has_ebs());
  EXPECT_FALSE(cluster.has_s3());
}

TEST(ClusterTest, RemoteTransferPathCrossesSwitchAndBothNodes) {
  SimEngine engine;
  FlowNetwork net(&engine);
  Cluster cluster(&engine, &net,
                  ClusterSpec::Uniform(2, NodeSpec{}, 1000.0));
  auto path = cluster.RemoteTransferPath(0, 1);
  EXPECT_EQ(path.size(), 5u);
  EXPECT_EQ(path[0], cluster.disk(0));
  EXPECT_EQ(path[2], cluster.switch_resource());
  EXPECT_EQ(path[4], cluster.disk(1));
}

TEST(ClusterTest, OptionalResources) {
  SimEngine engine;
  FlowNetwork net(&engine);
  ClusterSpec spec = ClusterSpec::Uniform(2, NodeSpec{}, 1000.0);
  spec.ebs_bw_mbps = 160.0;
  spec.s3_bw_mbps = 5000.0;
  Cluster cluster(&engine, &net, spec);
  EXPECT_TRUE(cluster.has_ebs());
  EXPECT_TRUE(cluster.has_s3());
  EXPECT_EQ(cluster.S3ReadPath(1).size(), 3u);
  EXPECT_EQ(cluster.EbsPath(0).size(), 2u);
}

// ------------------------------------------------------------ load injector -

TEST(LoadInjectorTest, CpuStressSlowsTasks) {
  SimEngine engine;
  FlowNetwork net(&engine);
  NodeSpec node;
  node.cores = 2;
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(1, node, 1000.0));
  LoadInjector load(&cluster);
  load.StressCpu(0, 2);  // two hogs: aggregate weight 1+log2(2) = 2

  double t = -1;
  net.StartFlow({{cluster.cpu(0)}, 10.0, 1.0, 1.0,
                 [&] { t = engine.Now(); }});
  engine.Run();
  // Total weight 3 on 2 cores: the task (weight 1) gets 2/3 core -> 15 s.
  EXPECT_NEAR(t, 15.0, 1e-6);
  EXPECT_EQ(load.ActiveCount(0), 1);  // one aggregated stress flow
  load.StopAll();
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(LoadInjectorTest, DiskStressContendsForBandwidth) {
  SimEngine engine;
  FlowNetwork net(&engine);
  NodeSpec node;
  node.disk_bw_mbps = 100.0;
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(1, node, 1000.0));
  LoadInjector load(&cluster);
  load.StressDisk(0, 4, 40.0);  // aggregate weight 1+log2(4) = 3

  double t = -1;
  net.StartFlow({{cluster.disk(0)}, 100.0, kNoRateCap, 1.0,
                 [&] { t = engine.Now(); }});
  engine.Run();
  // Weight 3 vs 1: task gets 25 MB/s -> 4 s.
  EXPECT_NEAR(t, 4.0, 1e-6);
  load.StopNode(0);
  EXPECT_EQ(load.ActiveCount(0), 0);
}

TEST(LoadInjectorTest, StressZeroIsNoop) {
  SimEngine engine;
  FlowNetwork net(&engine);
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(1, NodeSpec{}, 100.0));
  LoadInjector load(&cluster);
  load.StressCpu(0, 0);
  load.StressDisk(0, 0);
  EXPECT_EQ(net.active_flows(), 0u);
}

}  // namespace
}  // namespace hiway
