// Scale-refactor coverage (docs/scaling.md): the RM's incremental
// allocation pass must be schedule-identical to the full-scan reference
// oracle (tests/oracles/rm_oracle.h) under randomized demand churn for
// every policy, with and without preemption; the RM's books must match
// its live containers after every allocation pass; the SimEngine's lazy
// cancellation must compact without dropping or reordering live events;
// FlatHashMap must keep references stable across growth and tombstone
// churn; and a 1k-workflow admission burst must drain cleanly.
//
// Run with `ctest -L scale`.

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/flat_hash.h"
#include "src/common/strings.h"
#include "src/sim/cluster.h"
#include "src/sim/engine.h"
#include "src/sim/flow.h"
#include "src/yarn/yarn.h"
#include "tests/oracles/rm_oracle.h"

namespace hiway {
namespace {

// ---- FlatHashMap ----------------------------------------------------------

TEST(FlatHashMapTest, BasicOpsMatchStdMap) {
  FlatHashMap<int64_t, int> map;
  std::map<int64_t, int> reference;
  std::mt19937 rng(7);
  for (int i = 0; i < 20000; ++i) {
    int64_t key = static_cast<int64_t>(rng() % 500);
    switch (rng() % 3) {
      case 0:
      case 1:
        map[key] = i;
        reference[key] = i;
        break;
      case 2:
        EXPECT_EQ(map.erase(key), reference.erase(key));
        break;
    }
  }
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [key, value] : reference) {
    auto it = map.find(key);
    ASSERT_NE(it, map.end()) << key;
    EXPECT_EQ(it->second, value);
  }
  size_t seen = 0;
  for (const auto& [key, value] : map) {
    EXPECT_EQ(reference.at(key), value);
    ++seen;
  }
  EXPECT_EQ(seen, reference.size());
}

TEST(FlatHashMapTest, ReferencesSurviveGrowthAndChurn) {
  FlatHashMap<int64_t, int> map;
  map[42] = 1;
  int& pinned = map[42];
  // Force many rehashes of the bucket array and slot churn in the
  // backing store; the deque-backed entry must not move.
  for (int64_t i = 0; i < 10000; ++i) map[1000 + i] = static_cast<int>(i);
  for (int64_t i = 0; i < 5000; ++i) map.erase(1000 + i);
  for (int64_t i = 0; i < 5000; ++i) map[20000 + i] = static_cast<int>(i);
  EXPECT_EQ(pinned, 1);
  pinned = 2;
  EXPECT_EQ(map.at(42), 2);
}

TEST(FlatHashMapTest, TombstoneHeavyChurnStaysCorrect) {
  FlatHashMap<int64_t, int64_t> map;
  // Insert/erase the same small working set far more times than the
  // table has buckets: probe paths must stay finite (the in-place
  // rehash reclaims tombstones) and lookups exact.
  for (int64_t round = 0; round < 2000; ++round) {
    for (int64_t k = 0; k < 16; ++k) map[k * 7919] = round;
    for (int64_t k = 0; k < 16; ++k) {
      ASSERT_TRUE(map.contains(k * 7919));
      map.erase(k * 7919);
    }
  }
  EXPECT_TRUE(map.empty());
}

// ---- SimEngine lazy cancellation -----------------------------------------

TEST(SimEngineScaleTest, CancellationCompactsWithoutDroppingLiveEvents) {
  SimEngine engine;
  std::vector<double> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 8000; ++i) {
    double at = static_cast<double>(i % 997);
    ids.push_back(engine.ScheduleAt(at, [&fired, &engine] {
      fired.push_back(engine.Now());
    }));
  }
  // Cancel three quarters; well past the compaction threshold.
  size_t live = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i % 4 != 0) {
      engine.Cancel(ids[i]);
    } else {
      ++live;
    }
  }
  EXPECT_GE(engine.compactions(), 1u);
  EXPECT_EQ(engine.pending_events(), live);
  engine.Run();
  EXPECT_EQ(fired.size(), live);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_GE(engine.peak_pending(), live);
}

TEST(SimEngineScaleTest, CancelAfterFireAndUnknownAreNoops) {
  SimEngine engine;
  int fired = 0;
  EventId id = engine.ScheduleAt(1.0, [&fired] { ++fired; });
  engine.Run();
  EXPECT_EQ(fired, 1);
  engine.Cancel(id);      // already fired
  engine.Cancel(999999);  // never existed
  engine.ScheduleAt(2.0, [&fired] { ++fired; });
  engine.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimEngineScaleTest, TiesFireInScheduleOrderAcrossCompaction) {
  SimEngine engine;
  std::vector<int> order;
  std::vector<EventId> victims;
  for (int i = 0; i < 3000; ++i) {
    victims.push_back(engine.ScheduleAt(5.0, [] {}));
  }
  for (int i = 0; i < 8; ++i) {
    engine.ScheduleAt(5.0, [&order, i] { order.push_back(i); });
  }
  for (EventId id : victims) engine.Cancel(id);
  engine.Run();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

// ---- Incremental pass == full scan under randomized churn -----------------

struct AllocationEvent {
  ApplicationId app;
  NodeId node;
  int vcores;
  double memory_mb;
  double at;
  bool operator==(const AllocationEvent& o) const {
    return app == o.app && node == o.node && vcores == o.vcores &&
           memory_mb == o.memory_mb && at == o.at;
  }
};

class StreamAm : public AmCallbacks {
 public:
  void OnContainerAllocated(const Container& container,
                            int64_t /*cookie*/) override {
    if (container.is_am) return;
    stream->push_back({container.app, container.node, container.vcores,
                       container.memory_mb, engine->Now()});
    double duration = (*durations)[*next_duration % durations->size()];
    ++*next_duration;
    ContainerId id = container.id;
    engine->ScheduleAfter(duration, [this, id] { rm->ReleaseContainer(id); });
  }
  void OnContainerLost(const Container& container,
                       ContainerLossReason /*reason*/) override {
    losses->push_back({container.app, container.node, container.vcores,
                       container.memory_mb, engine->Now()});
  }

  SimEngine* engine = nullptr;
  ResourceManager* rm = nullptr;
  std::vector<AllocationEvent>* stream = nullptr;
  std::vector<AllocationEvent>* losses = nullptr;
  const std::vector<double>* durations = nullptr;
  size_t* next_duration = nullptr;
};

/// One scripted churn action, generated once and replayed identically
/// against the production pass and the oracle.
struct ChurnOp {
  enum Kind { kRegister, kSubmit, kUnregister, kKillNode } kind;
  double at = 0.0;
  int app_index = 0;     // kRegister/kSubmit/kUnregister
  std::string queue;     // kRegister
  int vcores = 1;        // kSubmit
  double memory_mb = 0;  // kSubmit
  int priority = 0;      // kSubmit
  NodeId preferred = kInvalidNode;  // kSubmit
  NodeId node = 0;       // kKillNode
};

std::vector<ChurnOp> MakeChurnScript(uint32_t seed) {
  std::mt19937 rng(seed);
  auto uniform = [&rng](double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(rng() % 100000) / 100000.0);
  };
  std::vector<ChurnOp> ops;
  constexpr int kApps = 30;
  for (int a = 0; a < kApps; ++a) {
    ChurnOp reg;
    reg.kind = ChurnOp::kRegister;
    reg.at = uniform(0.0, 10.0);
    reg.app_index = a;
    reg.queue = StrFormat("q%u", static_cast<unsigned>(rng() % 4));
    ops.push_back(reg);
    int requests = 5 + static_cast<int>(rng() % 11);
    for (int r = 0; r < requests; ++r) {
      ChurnOp sub;
      sub.kind = ChurnOp::kSubmit;
      sub.at = reg.at + uniform(0.1, 15.0);
      sub.app_index = a;
      sub.vcores = 1 + static_cast<int>(rng() % 2);
      sub.memory_mb = 512.0 * static_cast<double>(1 + rng() % 4);
      sub.priority = static_cast<int>(rng() % 3);
      if (rng() % 5 == 0) sub.preferred = static_cast<NodeId>(rng() % 20);
      ops.push_back(sub);
    }
  }
  for (int i = 0; i < 5; ++i) {
    ChurnOp un;
    un.kind = ChurnOp::kUnregister;
    un.at = uniform(15.0, 25.0);
    un.app_index = static_cast<int>(rng() % kApps);
    ops.push_back(un);
  }
  for (double at : {6.0, 12.0}) {
    ChurnOp kill;
    kill.kind = ChurnOp::kKillNode;
    kill.at = at;
    kill.node = static_cast<NodeId>(rng() % 20);
    ops.push_back(kill);
  }
  return ops;
}

struct ChurnOutcome {
  std::vector<AllocationEvent> stream;
  /// Node kills and (with preemption) kPreempted victims, in order.
  std::vector<AllocationEvent> losses;
  int64_t preempted = 0;
  std::vector<std::pair<int, double>> free_capacity;  // per alive node
  int pending = 0;
  double instant_fairness = 0.0;
  double time_averaged_fairness = 0.0;
};

ChurnOutcome RunChurn(RmPolicy policy, bool preemption, bool full_scan,
                      const std::vector<ChurnOp>& ops,
                      const std::vector<double>& durations) {
  SimEngine engine;
  FlowNetwork net(&engine);
  NodeSpec node;
  node.cores = 4;
  node.memory_mb = 4096.0;
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(20, node, 1000.0));
  YarnOptions options;
  options.scheduler = policy;
  options.preemption = preemption;
  // A short grace, so even capacity (which serves starved queues first)
  // has episodes that outlast it and preempts.
  options.preemption_grace_s = 1.0;
  ResourceManager rm(&cluster, options);
  if (full_scan) RmOracle::UseFullScanPass(&rm);
  struct QueueSpec {
    const char* name;
    double guaranteed, max, weight;
  };
  // max_share < 1 on two queues so the incremental pass must reproduce
  // the oracle's WithinMaxShare skips exactly.
  for (const QueueSpec& q : {QueueSpec{"q0", 0.4, 0.6, 2.0},
                             QueueSpec{"q1", 0.3, 1.0, 1.0},
                             QueueSpec{"q2", 0.2, 0.5, 1.0},
                             QueueSpec{"q3", 0.1, 1.0, 3.0}}) {
    RmQueueConfig config;
    config.name = q.name;
    config.guaranteed_share = q.guaranteed;
    config.max_share = q.max;
    config.weight = q.weight;
    rm.ConfigureQueue(config);
  }

  ChurnOutcome outcome;
  size_t next_duration = 0;
  std::vector<std::unique_ptr<StreamAm>> ams(31);
  std::vector<ApplicationId> app_ids(31, -1);
  for (auto& am : ams) {
    am = std::make_unique<StreamAm>();
    am->engine = &engine;
    am->rm = &rm;
    am->stream = &outcome.stream;
    am->losses = &outcome.losses;
    am->durations = &durations;
    am->next_duration = &next_duration;
  }
  for (const ChurnOp& op : ops) {
    engine.ScheduleAt(op.at, [&, op] {
      switch (op.kind) {
        case ChurnOp::kRegister: {
          auto app = rm.RegisterApplication(
              StrFormat("app-%d", op.app_index), ams[op.app_index].get(), 0,
              0.0, kInvalidNode, op.queue);
          if (app.ok()) app_ids[op.app_index] = *app;
          break;
        }
        case ChurnOp::kSubmit: {
          if (app_ids[op.app_index] < 0) break;
          ContainerRequest request;
          request.vcores = op.vcores;
          request.memory_mb = op.memory_mb;
          request.priority = op.priority;
          request.preferred_node = op.preferred;
          rm.SubmitRequest(app_ids[op.app_index], request);
          break;
        }
        case ChurnOp::kUnregister:
          if (app_ids[op.app_index] >= 0) {
            rm.UnregisterApplication(app_ids[op.app_index]);
            app_ids[op.app_index] = -1;
          }
          break;
        case ChurnOp::kKillNode:
          rm.KillNode(op.node);
          break;
      }
    });
  }
  engine.Run();

  for (NodeId n = 0; n < 20; ++n) {
    if (!rm.IsNodeAlive(n)) continue;
    outcome.free_capacity.push_back({rm.free_vcores(n), rm.free_memory_mb(n)});
  }
  outcome.pending = rm.pending_requests();
  outcome.preempted = rm.counters().preempted_containers;
  outcome.instant_fairness = RmOracle::InstantFairness(rm);
  outcome.time_averaged_fairness = rm.TimeAveragedFairness();
  return outcome;
}

/// (policy, preemption on?)
class ScaleEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<RmPolicy, bool>> {};

TEST_P(ScaleEquivalenceTest, IncrementalPassIsScheduleIdenticalToOracle) {
  auto [policy, preemption] = GetParam();
  int64_t preempted = 0;
  for (uint32_t seed : {1u, 17u, 4242u}) {
    std::mt19937 rng(seed ^ 0x5bd1e995u);
    std::vector<double> durations;
    for (int i = 0; i < 2048; ++i) {
      durations.push_back(0.5 + static_cast<double>(rng() % 4500) / 1000.0);
    }
    std::vector<ChurnOp> ops = MakeChurnScript(seed);
    ChurnOutcome incremental =
        RunChurn(policy, preemption, /*full_scan=*/false, ops, durations);
    ChurnOutcome full_scan =
        RunChurn(policy, preemption, /*full_scan=*/true, ops, durations);

    ASSERT_EQ(incremental.stream.size(), full_scan.stream.size())
        << "seed " << seed;
    for (size_t i = 0; i < incremental.stream.size(); ++i) {
      ASSERT_TRUE(incremental.stream[i] == full_scan.stream[i])
          << "seed " << seed << " allocation " << i;
    }
    EXPECT_TRUE(incremental.losses == full_scan.losses) << "seed " << seed;
    EXPECT_EQ(incremental.preempted, full_scan.preempted);
    EXPECT_EQ(incremental.free_capacity, full_scan.free_capacity);
    EXPECT_EQ(incremental.pending, full_scan.pending);
    // Same state reached through the same FairnessTouch choke points:
    // the incremental aggregates must agree bit-for-bit across passes.
    EXPECT_EQ(incremental.instant_fairness, full_scan.instant_fairness);
    EXPECT_EQ(incremental.time_averaged_fairness,
              full_scan.time_averaged_fairness);
    EXPECT_GT(incremental.stream.size(), 100u);  // the script did real work
    preempted += incremental.preempted;
  }
  // Preemption kills must actually interleave with the passes.
  if (preemption) {
    EXPECT_GT(preempted, 0);
  } else {
    EXPECT_EQ(preempted, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ScaleEquivalenceTest,
    ::testing::Combine(::testing::Values(RmPolicy::kFifo,
                                         RmPolicy::kCapacity,
                                         RmPolicy::kFair),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<RmPolicy, bool>>& info) {
      return std::string(ToString(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_preemption" : "");
    });

// ---- RM accounting invariant under randomized churn -----------------------

/// The first way the RM's books disagree with its live containers, read
/// through public accessors only; empty when they agree:
///  * each queue's usage, pending demand and pending requests are the sums
///    over the applications charged to it;
///  * each application's usage is the sum over its live containers (AM
///    included);
///  * each alive node's free capacity is its capacity minus its live
///    containers;
///  * the integer fields of counters() are the sums over every
///    application ever registered.
std::string AccountingViolation(const ResourceManager& rm,
                                const Cluster& cluster) {
  struct Sums {
    ResourceUsage usage;
    ResourceUsage pending;
    int pending_requests = 0;
  };
  auto same = [](const ResourceUsage& a, const ResourceUsage& b) {
    return a.vcores == b.vcores && a.memory_mb == b.memory_mb;
  };
  std::map<ApplicationId, ResourceUsage> app_usage;
  std::map<NodeId, ResourceUsage> node_usage;
  for (const Container& c : rm.RunningContainers()) {
    for (ResourceUsage* u : {&app_usage[c.app], &node_usage[c.node]}) {
      u->vcores += c.vcores;
      u->memory_mb += c.memory_mb;
    }
  }
  std::map<std::string, Sums> queue_sums;
  RmCounters sum;
  int pending_requests = 0;
  for (ApplicationId app : rm.KnownApplications()) {
    const TenantStats* stats = rm.app_stats(app);
    if (stats == nullptr) return StrFormat("app %d has no stats", app);
    if (!same(stats->usage, app_usage[app])) {
      return StrFormat("app %d usage %d/%.0f, live containers %d/%.0f", app,
                       stats->usage.vcores, stats->usage.memory_mb,
                       app_usage[app].vcores, app_usage[app].memory_mb);
    }
    Sums& q = queue_sums[stats->queue];
    q.usage.vcores += stats->usage.vcores;
    q.usage.memory_mb += stats->usage.memory_mb;
    q.pending.vcores += stats->pending.vcores;
    q.pending.memory_mb += stats->pending.memory_mb;
    q.pending_requests += stats->pending_requests;
    pending_requests += stats->pending_requests;
    const RmCounters& k = stats->counters;
    sum.requests += k.requests;
    sum.allocations += k.allocations;
    sum.releases += k.releases;
    sum.lost_containers += k.lost_containers;
    sum.reclaimed_containers += k.reclaimed_containers;
    sum.app_failures += k.app_failures;
    sum.preempted_containers += k.preempted_containers;
    sum.drained_containers += k.drained_containers;
  }
  for (const std::string& queue : rm.ConfiguredQueues()) {
    const TenantStats* stats = rm.queue_stats(queue);
    if (stats == nullptr) return "queue " + queue + " has no stats";
    const Sums& q = queue_sums[queue];
    if (!same(stats->usage, q.usage) || !same(stats->pending, q.pending) ||
        stats->pending_requests != q.pending_requests) {
      return StrFormat(
          "queue %s usage %d/%.0f pending %d/%.0f (%d requests), apps sum "
          "to %d/%.0f pending %d/%.0f (%d requests)",
          queue.c_str(), stats->usage.vcores, stats->usage.memory_mb,
          stats->pending.vcores, stats->pending.memory_mb,
          stats->pending_requests, q.usage.vcores, q.usage.memory_mb,
          q.pending.vcores, q.pending.memory_mb, q.pending_requests);
    }
  }
  if (rm.pending_requests() != pending_requests) {
    return StrFormat("%d pending requests, apps sum to %d",
                     rm.pending_requests(), pending_requests);
  }
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (!rm.IsNodeAlive(n)) continue;
    const ResourceUsage& used = node_usage[n];
    if (rm.free_vcores(n) != cluster.node(n).cores - used.vcores ||
        rm.free_memory_mb(n) != cluster.node(n).memory_mb - used.memory_mb) {
      return StrFormat("node %d free %d/%.0f, capacity minus live %d/%.0f", n,
                       rm.free_vcores(n), rm.free_memory_mb(n),
                       cluster.node(n).cores - used.vcores,
                       cluster.node(n).memory_mb - used.memory_mb);
    }
  }
  const RmCounters& k = rm.counters();
  std::pair<const char*, std::pair<int64_t, int64_t>> fields[] = {
      {"requests", {k.requests, sum.requests}},
      {"allocations", {k.allocations, sum.allocations}},
      {"releases", {k.releases, sum.releases}},
      {"lost_containers", {k.lost_containers, sum.lost_containers}},
      {"reclaimed_containers",
       {k.reclaimed_containers, sum.reclaimed_containers}},
      {"app_failures", {k.app_failures, sum.app_failures}},
      {"preempted_containers",
       {k.preempted_containers, sum.preempted_containers}},
      {"drained_containers", {k.drained_containers, sum.drained_containers}},
  };
  for (const auto& [name, values] : fields) {
    if (values.first != values.second) {
      return StrFormat("counters().%s = %lld, apps sum to %lld", name,
                       static_cast<long long>(values.first),
                       static_cast<long long>(values.second));
    }
  }
  return "";
}

struct AccountingRun {
  /// The first violation and the pass after which it was seen.
  std::string violation;
  uint64_t pass = 0;
  int checks = 0;
  size_t allocations = 0;
  RmCounters counters;
};

/// One churn run under `policy` with preemption on, checking the books
/// after every allocation pass and stopping at the first violation.
AccountingRun RunAccountingChurn(RmPolicy policy, uint32_t seed) {
  SimEngine engine;
  FlowNetwork net(&engine);
  NodeSpec node;
  node.cores = 4;
  node.memory_mb = 4096.0;
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(20, node, 1000.0));
  YarnOptions options;
  options.scheduler = policy;
  options.preemption = true;
  options.preemption_grace_s = 1.0;
  ResourceManager rm(&cluster, options);
  for (const RmQueueConfig& q : {RmQueueConfig{"q0", 0.4, 0.6, 2.0},
                                 RmQueueConfig{"q1", 0.3, 1.0, 1.0},
                                 RmQueueConfig{"q2", 0.2, 0.5, 1.0},
                                 RmQueueConfig{"q3", 0.1, 1.0, 3.0}}) {
    rm.ConfigureQueue(q);
  }

  std::mt19937 rng(seed ^ 0x9e3779b9u);
  std::vector<double> durations;
  for (int i = 0; i < 2048; ++i) {
    durations.push_back(0.5 + static_cast<double>(rng() % 4500) / 1000.0);
  }
  std::vector<AllocationEvent> stream, losses;
  size_t next_duration = 0;
  std::vector<std::unique_ptr<StreamAm>> ams(31);
  std::vector<ApplicationId> app_ids(31, -1);
  for (auto& am : ams) {
    am = std::make_unique<StreamAm>();
    am->engine = &engine;
    am->rm = &rm;
    am->stream = &stream;
    am->losses = &losses;
    am->durations = &durations;
    am->next_duration = &next_duration;
  }
  // The churn script (registrations, requests, unregistrations, node
  // kills) with sized AM containers, plus container kills that sometimes
  // hit an AM and every few seconds certainly do (failing the app).
  for (const ChurnOp& op : MakeChurnScript(seed)) {
    engine.ScheduleAt(op.at, [&, op] {
      switch (op.kind) {
        case ChurnOp::kRegister: {
          auto app = rm.RegisterApplication(
              StrFormat("app-%d", op.app_index), ams[op.app_index].get(), 1,
              512.0, kInvalidNode, op.queue);
          if (app.ok()) app_ids[op.app_index] = *app;
          break;
        }
        case ChurnOp::kSubmit: {
          if (app_ids[op.app_index] < 0) break;
          // An AM kill may have failed the app since.
          if (rm.AmNode(app_ids[op.app_index]).status().IsNotFound()) break;
          ContainerRequest request;
          request.vcores = op.vcores;
          request.memory_mb = op.memory_mb;
          request.priority = op.priority;
          request.preferred_node = op.preferred;
          rm.SubmitRequest(app_ids[op.app_index], request);
          break;
        }
        case ChurnOp::kUnregister:
          if (app_ids[op.app_index] >= 0) {
            rm.UnregisterApplication(app_ids[op.app_index]);
            app_ids[op.app_index] = -1;
          }
          break;
        case ChurnOp::kKillNode:
          rm.KillNode(op.node);
          break;
      }
    });
  }
  for (int i = 0; i < 10; ++i) {
    const bool am_only = i % 3 == 2;
    engine.ScheduleAt(2.0 + 2.0 * i, [&rm, &rng, am_only] {
      std::vector<Container> victims;
      for (const Container& c : rm.RunningContainers()) {
        if (!am_only || c.is_am) victims.push_back(c);
      }
      if (!victims.empty()) rm.KillContainer(victims[rng() % victims.size()].id);
    });
  }

  AccountingRun run;
  engine.RunUntilPredicate([&] {
    if (rm.allocation_passes() == run.pass) return false;
    run.pass = rm.allocation_passes();
    ++run.checks;
    run.violation = AccountingViolation(rm, cluster);
    return !run.violation.empty();
  });
  run.allocations = stream.size();
  run.counters = rm.counters();
  return run;
}

class RmAccountingTest : public ::testing::TestWithParam<RmPolicy> {};

TEST_P(RmAccountingTest, BooksMatchLiveContainersAfterEveryPass) {
  RmCounters total;
  for (uint32_t seed : {1u, 17u, 4242u}) {
    AccountingRun run = RunAccountingChurn(GetParam(), seed);
    ASSERT_EQ(run.violation, "")
        << "seed " << seed << ", after allocation pass " << run.pass;
    EXPECT_GT(run.checks, 20) << "seed " << seed;
    EXPECT_GT(run.allocations, 100u) << "seed " << seed;
    total.preempted_containers += run.counters.preempted_containers;
    total.lost_containers += run.counters.lost_containers;
    total.app_failures += run.counters.app_failures;
    total.reclaimed_containers += run.counters.reclaimed_containers;
  }
  // The runs exercised every path that moves the books.
  EXPECT_GT(total.preempted_containers, 0);
  EXPECT_GT(total.lost_containers, 0);
  EXPECT_GT(total.app_failures, 0);
  EXPECT_GT(total.reclaimed_containers, 0);
}

INSTANTIATE_TEST_SUITE_P(
    CapacityAndFair, RmAccountingTest,
    ::testing::Values(RmPolicy::kCapacity, RmPolicy::kFair),
    [](const ::testing::TestParamInfo<RmPolicy>& info) {
      return std::string(ToString(info.param));
    });

// ---- 1k-workflow admission smoke -----------------------------------------

class SmokeAm : public AmCallbacks {
 public:
  void OnContainerAllocated(const Container& container,
                            int64_t /*cookie*/) override {
    if (container.is_am) return;
    if (first_alloc_at < 0.0) first_alloc_at = engine->Now();
    ContainerId id = container.id;
    engine->ScheduleAfter(1.0, [this, id] {
      rm->ReleaseContainer(id);
      if (--remaining == 0) rm->UnregisterApplication(app);
    });
  }
  void OnContainerLost(const Container& /*container*/,
                       ContainerLossReason /*reason*/) override {}

  SimEngine* engine = nullptr;
  ResourceManager* rm = nullptr;
  ApplicationId app = -1;
  double first_alloc_at = -1.0;
  int remaining = 4;
};

TEST(ScaleSmokeTest, ThousandConcurrentWorkflowsDrainCleanly) {
  SimEngine engine;
  FlowNetwork net(&engine);
  NodeSpec node;
  node.cores = 4;
  node.memory_mb = 8192.0;
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(200, node, 1000.0));
  YarnOptions options;
  options.scheduler = RmPolicy::kFair;
  ResourceManager rm(&cluster, options);

  constexpr int kWorkflows = 1000;
  engine.Reserve(kWorkflows * 4 + 64);
  std::vector<std::unique_ptr<SmokeAm>> ams;
  for (int w = 0; w < kWorkflows; ++w) {
    ams.push_back(std::make_unique<SmokeAm>());
    SmokeAm* am = ams.back().get();
    am->engine = &engine;
    am->rm = &rm;
    engine.ScheduleAt(w * 0.002, [am, &rm, w] {
      auto app = rm.RegisterApplication(StrFormat("smoke-%d", w), am, 0, 0.0);
      ASSERT_TRUE(app.ok());
      am->app = *app;
      ContainerRequest request;
      request.vcores = 1;
      request.memory_mb = 512.0;
      for (int t = 0; t < 4; ++t) rm.SubmitRequest(am->app, request);
    });
  }
  engine.Run();

  for (const auto& am : ams) {
    ASSERT_GE(am->first_alloc_at, 0.0);
    EXPECT_EQ(am->remaining, 0);
  }
  EXPECT_EQ(rm.running_containers(), 0);
  EXPECT_EQ(rm.pending_requests(), 0);
  EXPECT_EQ(rm.counters().allocations, kWorkflows * 4 + kWorkflows);
  EXPECT_GT(rm.allocation_passes(), 0u);
  double jain = RmOracle::InstantFairness(rm);
  EXPECT_GE(jain, 0.0);
  EXPECT_LE(jain, 1.0);
}

}  // namespace
}  // namespace hiway
