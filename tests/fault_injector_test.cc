// Tests for the fault-injection harness: spec grammar, one-shot and
// recurring scheduling, seeded-random target choice, and the DFS
// read-fault hook.

#include "src/sim/fault_injector.h"

#include <gtest/gtest.h>

#include "src/sim/engine.h"

namespace hiway {
namespace {

TEST(FaultSpecGrammarTest, ParsesEveryClauseType) {
  auto specs = ParseFaultSpecs(
      "kill-node@120, kill-am-node@60:sub=2, am-crash@45, "
      "fail-container:rate=0.2:every=30:until=600, "
      "hdfs-error:rate=0.05:until=300");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs->size(), 5u);

  EXPECT_EQ((*specs)[0].type, FaultType::kKillNode);
  EXPECT_DOUBLE_EQ((*specs)[0].at, 120.0);

  EXPECT_EQ((*specs)[1].type, FaultType::kKillAmNode);
  EXPECT_DOUBLE_EQ((*specs)[1].at, 60.0);
  EXPECT_EQ((*specs)[1].submission, 2);

  EXPECT_EQ((*specs)[2].type, FaultType::kAmCrash);
  EXPECT_DOUBLE_EQ((*specs)[2].at, 45.0);

  EXPECT_EQ((*specs)[3].type, FaultType::kFailContainer);
  EXPECT_DOUBLE_EQ((*specs)[3].rate, 0.2);
  EXPECT_DOUBLE_EQ((*specs)[3].every, 30.0);
  EXPECT_DOUBLE_EQ((*specs)[3].until, 600.0);

  EXPECT_EQ((*specs)[4].type, FaultType::kHdfsError);
  EXPECT_DOUBLE_EQ((*specs)[4].rate, 0.05);
}

TEST(FaultSpecGrammarTest, AtKeyEqualsAtSignSyntax) {
  auto a = ParseFaultSpecs("kill-node@75");
  auto b = ParseFaultSpecs("kill-node:at=75");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ((*a)[0].at, (*b)[0].at);
}

TEST(FaultSpecGrammarTest, ParsesSpotRevoke) {
  auto specs = ParseFaultSpecs("spot-revoke@300:warn=120, spot-revoke@500");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs->size(), 2u);
  EXPECT_EQ((*specs)[0].type, FaultType::kSpotRevoke);
  EXPECT_DOUBLE_EQ((*specs)[0].at, 300.0);
  EXPECT_DOUBLE_EQ((*specs)[0].warn, 120.0);
  // Without warn= the injector's default warning applies later.
  EXPECT_DOUBLE_EQ((*specs)[1].warn, -1.0);
}

TEST(FaultSpecGrammarTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseFaultSpecs("").ok());
  EXPECT_FALSE(ParseFaultSpecs("melt-cpu@10").ok());
  EXPECT_FALSE(ParseFaultSpecs("kill-node").ok());  // no at, no rate
  EXPECT_FALSE(ParseFaultSpecs("kill-node@abc").ok());
  EXPECT_FALSE(ParseFaultSpecs("kill-node:at").ok());  // not key=value
  EXPECT_FALSE(ParseFaultSpecs("kill-node:frequency=2").ok());
  EXPECT_FALSE(ParseFaultSpecs("hdfs-error@10").ok());  // needs rate
  EXPECT_FALSE(ParseFaultSpecs("fail-container:rate=0.5:every=0").ok());
}

TEST(FaultSpecGrammarTest, ErrorsNameTheOffendingToken) {
  // Unknown clause types, unknown parameters, and out-of-range values
  // all fail loudly with the offending token in the message.
  auto unknown_type = ParseFaultSpecs("kill-node@10, melt-cpu@20");
  ASSERT_FALSE(unknown_type.ok());
  EXPECT_NE(unknown_type.status().ToString().find("melt-cpu"),
            std::string::npos)
      << unknown_type.status().ToString();

  auto unknown_key = ParseFaultSpecs("kill-node@10:grace=5");
  ASSERT_FALSE(unknown_key.ok());
  EXPECT_NE(unknown_key.status().ToString().find("grace"), std::string::npos)
      << unknown_key.status().ToString();

  auto bad_value = ParseFaultSpecs("hdfs-error:rate=banana");
  ASSERT_FALSE(bad_value.ok());
  EXPECT_NE(bad_value.status().ToString().find("banana"), std::string::npos)
      << bad_value.status().ToString();
}

TEST(FaultSpecGrammarTest, RejectsMisusedWarnAndBadRates) {
  // warn= is spot-revoke-only.
  EXPECT_FALSE(ParseFaultSpecs("kill-node@10:warn=120").ok());
  EXPECT_FALSE(ParseFaultSpecs("am-crash@10:warn=0").ok());
  // Negative warning windows are nonsense.
  EXPECT_FALSE(ParseFaultSpecs("spot-revoke@10:warn=-5").ok());
  // A rate is a probability.
  EXPECT_FALSE(ParseFaultSpecs("hdfs-error:rate=1.5").ok());
  // Valid uses still parse.
  EXPECT_TRUE(ParseFaultSpecs("spot-revoke@10:warn=0").ok());
  EXPECT_TRUE(ParseFaultSpecs("spot-revoke:rate=0.1:every=60").ok());
}

TEST(FaultSpecGrammarTest, RejectsNonIntegerAndNonFiniteValues) {
  // Fuzz regression (tests/fuzz/corpus/faultspec/crash_node_1e300.txt):
  // node=1e300 went through an undefined float->int cast and armed the
  // injector with a garbage node id instead of failing the parse.
  auto huge_node = ParseFaultSpecs("kill-node@1:node=1e300");
  ASSERT_FALSE(huge_node.ok());
  EXPECT_NE(huge_node.status().ToString().find("node=1e300"),
            std::string::npos)
      << huge_node.status().ToString();
  EXPECT_NE(huge_node.status().ToString().find("integer id"),
            std::string::npos);

  EXPECT_FALSE(ParseFaultSpecs("kill-node@1:node=2.5").ok());
  EXPECT_FALSE(ParseFaultSpecs("kill-node@1:node=-3").ok());
  EXPECT_FALSE(ParseFaultSpecs("kill-am-node@1:sub=1e30").ok());

  // Non-finite times and rates must be refused, not scheduled.
  auto inf_at = ParseFaultSpecs("kill-node@inf");
  ASSERT_FALSE(inf_at.ok());
  EXPECT_NE(inf_at.status().ToString().find("finite"), std::string::npos)
      << inf_at.status().ToString();
  EXPECT_FALSE(ParseFaultSpecs("kill-node:at=nan").ok());
  EXPECT_FALSE(ParseFaultSpecs("hdfs-error:rate=nan").ok());
  EXPECT_FALSE(ParseFaultSpecs("kill-node@1:until=inf").ok());

  // In-range integral ids still parse.
  auto ok = ParseFaultSpecs("kill-node@1:node=7");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ((*ok)[0].node, 7);
}

TEST(FaultInjectorTest, OneShotFiresAtTheScheduledTime) {
  SimEngine engine;
  FaultInjector injector(&engine);
  std::vector<std::pair<double, NodeId>> kills;
  FaultHandlers handlers;
  handlers.kill_node = [&](NodeId node) {
    kills.emplace_back(engine.Now(), node);
    return true;
  };
  injector.SetHandlers(std::move(handlers));
  ASSERT_TRUE(injector.ArmSpec("kill-node@42:node=3").ok());
  engine.Run();
  ASSERT_EQ(kills.size(), 1u);
  EXPECT_DOUBLE_EQ(kills[0].first, 42.0);
  EXPECT_EQ(kills[0].second, 3);
  EXPECT_EQ(injector.counters().node_kills, 1);
}

TEST(FaultInjectorTest, RandomTargetComesFromTheAliveList) {
  SimEngine engine;
  FaultInjector injector(&engine, /*seed=*/7);
  NodeId killed = kInvalidNode;
  FaultHandlers handlers;
  handlers.list_nodes = [] { return std::vector<NodeId>{5}; };
  handlers.kill_node = [&](NodeId node) {
    killed = node;
    return true;
  };
  injector.SetHandlers(std::move(handlers));
  ASSERT_TRUE(injector.ArmSpec("kill-node@1").ok());
  engine.Run();
  EXPECT_EQ(killed, 5);
}

TEST(FaultInjectorTest, RecurringFaultStopsWhenTheWorkloadDrains) {
  SimEngine engine;
  FaultInjector injector(&engine);
  int kills = 0;
  // Workload is active until t=100.
  FaultHandlers handlers;
  handlers.list_containers = [&] { return std::vector<int64_t>{1}; };
  handlers.fail_container = [&](int64_t) { ++kills; };
  handlers.active = [&] { return engine.Now() < 100.0; };
  injector.SetHandlers(std::move(handlers));
  // rate=1 every 10 s: deterministic, one kill per period while active.
  ASSERT_TRUE(injector.ArmSpec("fail-container:rate=1:every=10").ok());
  engine.Run();  // terminates because the chain stops after the drain
  EXPECT_EQ(kills, 9);  // t=10..90; at t=100 the workload is inactive
  EXPECT_EQ(injector.counters().container_kills, 9);
}

TEST(FaultInjectorTest, UntilBoundsARecurringFault) {
  SimEngine engine;
  FaultInjector injector(&engine);
  int kills = 0;
  FaultHandlers handlers;
  handlers.list_containers = [&] { return std::vector<int64_t>{1}; };
  handlers.fail_container = [&](int64_t) { ++kills; };
  injector.SetHandlers(std::move(handlers));
  ASSERT_TRUE(injector.ArmSpec("fail-container:rate=1:every=5:until=22").ok());
  engine.Run();
  EXPECT_EQ(kills, 4);  // t=5,10,15,20
}

TEST(FaultInjectorTest, ReadFaultHookHonorsRateAndWindow) {
  SimEngine engine;
  FaultInjector always(&engine);
  ASSERT_TRUE(always.ArmSpec("hdfs-error:rate=1:until=50").ok());
  EXPECT_TRUE(always.ShouldFailRead("/data/x", 0));
  EXPECT_EQ(always.counters().read_faults, 1);

  // Outside the window nothing fails.
  engine.ScheduleAt(60.0, [&] {
    EXPECT_FALSE(always.ShouldFailRead("/data/x", 0));
  });
  engine.Run();
  EXPECT_EQ(always.counters().read_faults, 1);

  FaultInjector never(&engine);
  ASSERT_TRUE(never.ArmSpec("hdfs-error:rate=0.0000001").ok());
  EXPECT_FALSE(never.ShouldFailRead("/data/y", 1));
}

TEST(FaultInjectorTest, FixedSeedReplaysTheSameFaultSequence) {
  auto run = [](uint64_t seed) {
    SimEngine engine;
    FaultInjector injector(&engine, seed);
    std::vector<double> kill_times;
    FaultHandlers handlers;
    handlers.list_containers = [&] { return std::vector<int64_t>{1}; };
    handlers.fail_container = [&](int64_t) {
      kill_times.push_back(engine.Now());
    };
    handlers.active = [&] { return engine.Now() < 200.0; };
    injector.SetHandlers(std::move(handlers));
    EXPECT_TRUE(injector.ArmSpec("fail-container:rate=0.5:every=10").ok());
    engine.Run();
    return kill_times;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(FaultInjectorTest, SpotRevokeUsesSpotListAndDefaultWarning) {
  SimEngine engine;
  FaultInjector injector(&engine, /*seed=*/3);
  std::vector<std::pair<NodeId, double>> revocations;
  FaultHandlers handlers;
  handlers.list_nodes = [] { return std::vector<NodeId>{1, 2, 3}; };
  handlers.list_spot_nodes = [] { return std::vector<NodeId>{7}; };
  handlers.revoke_node = [&](NodeId node, double warn_s) {
    revocations.emplace_back(node, warn_s);
    return true;
  };
  injector.SetHandlers(std::move(handlers));
  ASSERT_TRUE(injector.ArmSpec("spot-revoke@30, spot-revoke@60:warn=45").ok());
  engine.Run();
  ASSERT_EQ(revocations.size(), 2u);
  // Targets come from the spot list, not the full node list.
  EXPECT_EQ(revocations[0].first, 7);
  EXPECT_EQ(revocations[1].first, 7);
  // No warn= -> the injector default (the 120 s EC2 notice).
  EXPECT_DOUBLE_EQ(revocations[0].second, 120.0);
  EXPECT_DOUBLE_EQ(revocations[1].second, 45.0);
  EXPECT_EQ(injector.counters().spot_revocations, 2);
}

TEST(FaultInjectorTest, SpotRevokeFallsBackToAliveListAndCliDefault) {
  SimEngine engine;
  FaultInjector injector(&engine, /*seed=*/3);
  injector.SetDefaultRevokeWarning(15.0);
  std::vector<std::pair<NodeId, double>> revocations;
  FaultHandlers handlers;
  handlers.list_nodes = [] { return std::vector<NodeId>{4}; };
  handlers.revoke_node = [&](NodeId node, double warn_s) {
    revocations.emplace_back(node, warn_s);
    return true;
  };
  injector.SetHandlers(std::move(handlers));
  ASSERT_TRUE(injector.ArmSpec("spot-revoke@10").ok());
  engine.Run();
  ASSERT_EQ(revocations.size(), 1u);
  EXPECT_EQ(revocations[0].first, 4);
  EXPECT_DOUBLE_EQ(revocations[0].second, 15.0);
}

TEST(FaultInjectorTest, MissingHandlersMakeFaultsNoOps) {
  SimEngine engine;
  FaultInjector injector(&engine);
  ASSERT_TRUE(injector.ArmSpec("kill-node@1,am-crash@2,fail-container:at=3")
                  .ok());
  engine.Run();
  EXPECT_EQ(injector.counters().node_kills, 0);
  EXPECT_EQ(injector.counters().am_crashes, 0);
  EXPECT_EQ(injector.counters().container_kills, 0);
}

}  // namespace
}  // namespace hiway
