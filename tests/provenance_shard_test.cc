// Tests for per-submission provenance sharding: shard isolation under
// concurrent appenders, seal-then-merge ordering, and merge-on-read
// equivalence with a single shared store.

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/core/provenance.h"
#include "tests/oracles/provenance_oracle.h"

namespace hiway {
namespace {

TaskResult MakeResult(TaskId id, std::string signature, int32_t node,
                      double start, double end, bool success = true) {
  TaskResult result;
  result.id = id;
  result.signature = std::move(signature);
  result.node = node;
  result.started_at = start;
  result.finished_at = end;
  result.status = success ? Status::OK() : Status::RuntimeError("boom");
  return result;
}

// Interleaved appends from N threads (one per shard, like N concurrent
// AMs) all land in the right shard, with no torn or lost events.
TEST(ProvenanceShardTest, ConcurrentAppendersStayIsolated) {
  constexpr int kShards = 8;
  constexpr int kEventsPerShard = 500;
  ProvenanceManager manager;
  std::vector<std::string> runs;
  for (int i = 0; i < kShards; ++i) {
    runs.push_back(manager.BeginWorkflow(
        StrFormat("wf%d", i), /*now=*/static_cast<double>(i)));
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kShards; ++i) {
    threads.emplace_back([&manager, &runs, i] {
      ProvenanceShard* shard = manager.shard(runs[static_cast<size_t>(i)]);
      ASSERT_NE(shard, nullptr);
      for (int e = 0; e < kEventsPerShard; ++e) {
        shard->RecordTaskEnd(
            MakeResult(e, StrFormat("sig-%d-%d", i, e), i,
                       static_cast<double>(e), static_cast<double>(e) + 1.0),
            StrFormat("node-%03d", i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kShards; ++i) {
    ProvenanceShard* shard = manager.shard(runs[static_cast<size_t>(i)]);
    ASSERT_NE(shard, nullptr);
    // workflow-start + the task ends, every one tagged with this shard's
    // run id and carrying the exact payload its writer built (no tears).
    auto events = shard->Events();
    ASSERT_EQ(events.size(), 1u + kEventsPerShard);
    int64_t prev_seq = -1;
    for (const ProvenanceEvent& ev : events) {
      EXPECT_EQ(ev.run_id, runs[static_cast<size_t>(i)]);
      EXPECT_GT(ev.seq, prev_seq);  // ascending within the shard
      prev_seq = ev.seq;
      if (ev.type == ProvenanceEventType::kTaskEnd) {
        EXPECT_EQ(ev.node, i);
        EXPECT_EQ(ev.signature,
                  StrFormat("sig-%d-%lld", i,
                            static_cast<long long>(ev.task_id)));
      }
    }
  }

  // The merged view holds every event exactly once, in ascending seq,
  // with no duplicated or skipped sequence numbers.
  auto merged = manager.Events();
  ASSERT_EQ(merged.size(),
            static_cast<size_t>(kShards) * (1u + kEventsPerShard));
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].seq, static_cast<int64_t>(i));
  }
}

// The merged view reproduces the exact sequence a single shared store
// would have recorded for the same interleaved schedule.
TEST(ProvenanceShardTest, MergedViewEqualsSingleStoreSequence) {
  ProvenanceManager manager;
  InMemoryProvenanceStore single;  // the unsharded baseline, fed in step

  std::string a = manager.BeginWorkflow("alpha", 0.0);
  std::string b = manager.BeginWorkflow("beta", 0.0);
  auto mirror = [&single](const ProvenanceEvent& ev) { single.Append(ev); };
  {
    auto ev = manager.shard(a)->Events();
    mirror(ev[0]);
    ev = manager.shard(b)->Events();
    mirror(ev[0]);
  }
  // A deterministic interleaving across the two runs.
  for (int step = 0; step < 20; ++step) {
    const std::string& run = (step % 3 == 0) ? b : a;
    manager.shard(run)->RecordTaskEnd(
        MakeResult(step, StrFormat("t%d", step), step % 4,
                   static_cast<double>(step), static_cast<double>(step) + 2.0),
        "node");
    mirror(manager.shard(run)->Events().back());
  }
  manager.shard(a)->RecordWorkflowEnd(30.0, true);
  mirror(manager.shard(a)->Events().back());
  manager.shard(b)->RecordWorkflowEnd(31.0, false);
  mirror(manager.shard(b)->Events().back());

  auto merged = manager.View().Events();
  auto baseline = single.Events();
  ASSERT_EQ(merged.size(), baseline.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].ToJson().Dump(), baseline[i].ToJson().Dump())
        << "at " << i;
  }
  // And the statistics queries agree with a single-store-style scan.
  for (int step = 0; step < 20; ++step) {
    std::string sig = StrFormat("t%d", step);
    auto latest =
        ProvenanceOracle::LatestRuntime(manager.View(), sig, step % 4);
    ASSERT_TRUE(latest.ok()) << sig;
    EXPECT_DOUBLE_EQ(*latest, 2.0);
  }
}

// Sealing stops a shard's writes without disturbing the merge: events
// already recorded stay at their merged positions, late appends are
// dropped and counted.
TEST(ProvenanceShardTest, SealThenMergeKeepsOrderAndDropsLateAppends) {
  ProvenanceManager manager;
  std::string crashed = manager.BeginWorkflow("crashed", 0.0);
  std::string healthy = manager.BeginWorkflow("healthy", 0.0);

  manager.shard(crashed)->RecordTaskEnd(MakeResult(1, "early", 0, 0.0, 5.0),
                                        "n0");
  manager.shard(crashed)->Seal();
  EXPECT_TRUE(manager.shard(crashed)->sealed());

  // A straggling callback from the dead AM: dropped, counted, invisible.
  manager.shard(crashed)->RecordTaskEnd(MakeResult(2, "late", 0, 5.0, 9.0),
                                        "n0");
  EXPECT_EQ(manager.shard(crashed)->dropped_after_seal(), 1);

  // The healthy run keeps appending; the merge stays gap-free.
  manager.shard(healthy)->RecordTaskEnd(MakeResult(3, "after", 1, 6.0, 8.0),
                                        "n1");
  auto merged = manager.Events();
  ASSERT_EQ(merged.size(), 4u);  // 2 starts + early + after
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].seq, static_cast<int64_t>(i));
  }
  for (const ProvenanceEvent& ev : merged) {
    EXPECT_NE(ev.signature, "late");
  }
  // Sealing is idempotent.
  manager.shard(crashed)->Seal();
  EXPECT_EQ(manager.shard(crashed)->dropped_after_seal(), 1);
}

// ViewOf scopes queries to the named runs only — the failover path's
// guarantee that one submission never replays another tenant's events.
TEST(ProvenanceShardTest, ViewOfFiltersToNamedRuns) {
  ProvenanceManager manager;
  std::string mine1 = manager.BeginWorkflow("mine", 0.0);
  std::string other = manager.BeginWorkflow("other", 0.0);
  std::string mine2 = manager.BeginWorkflow("mine", 1.0);
  manager.shard(mine1)->RecordTaskEnd(MakeResult(1, "shared-sig", 0, 0, 10),
                                      "n0");
  manager.shard(other)->RecordTaskEnd(MakeResult(1, "shared-sig", 0, 0, 99),
                                      "n0");
  manager.shard(mine2)->RecordTaskEnd(MakeResult(1, "shared-sig", 0, 20, 25),
                                      "n0");

  ProvenanceView view = manager.ViewOf({mine1, mine2, "no-such-run"});
  EXPECT_EQ(view.shard_count(), 2u);
  for (const ProvenanceEvent& ev : view.Events()) {
    EXPECT_NE(ev.run_id, other);
  }
  // The other tenant's 99s observation is invisible; latest is mine2's 5s.
  auto latest = ProvenanceOracle::LatestRuntime(view, "shared-sig", 0);
  ASSERT_TRUE(latest.ok());
  EXPECT_DOUBLE_EQ(*latest, 5.0);
  auto obs = ProvenanceOracle::RuntimeObservations(view, "shared-sig");
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_DOUBLE_EQ(obs[0].second, 10.0);
  EXPECT_DOUBLE_EQ(obs[1].second, 5.0);
  // The full view still sees all three.
  EXPECT_EQ(
      ProvenanceOracle::RuntimeObservations(manager.View(), "shared-sig")
          .size(),
      3u);
}

// Foreign events (seq = -1, e.g. a trace imported from another
// installation) demote the merge to timestamp order instead of breaking
// the seq invariant.
TEST(ProvenanceShardTest, ForeignEventsMergeByTimestamp) {
  ProvenanceManager manager;
  std::string run = manager.BeginWorkflow("local", 10.0);
  manager.shard(run)->RecordTaskEnd(MakeResult(1, "a", 0, 10, 20), "n0");

  auto foreign_store = std::make_unique<InMemoryProvenanceStore>();
  ProvenanceEvent imported;
  imported.type = ProvenanceEventType::kTaskEnd;
  imported.run_id = "imported-run";
  imported.timestamp = 15.0;  // between the local events
  imported.signature = "b";
  imported.duration = 3.0;
  imported.success = true;
  foreign_store->Append(imported);  // appended directly: seq stays -1
  ASSERT_TRUE(
      manager.AdoptShard("imported-run", std::move(foreign_store)).ok());

  auto merged = manager.Events();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].timestamp, 10.0);
  EXPECT_EQ(merged[1].signature, "b");  // slotted by timestamp
  EXPECT_EQ(merged[2].signature, "a");
}

// AdoptShard advances the run and sequence counters past the adopted
// history so new runs never collide with it.
TEST(ProvenanceShardTest, AdoptShardAdvancesCounters) {
  ProvenanceManager manager;
  auto old_store = std::make_unique<InMemoryProvenanceStore>();
  ProvenanceEvent old_ev;
  old_ev.type = ProvenanceEventType::kWorkflowStart;
  old_ev.run_id = "wf-run-7";
  old_ev.workflow_name = "wf";
  old_ev.seq = 41;
  old_ev.timestamp = 5.0;
  old_store->Append(old_ev);
  ASSERT_TRUE(manager.AdoptShard("wf-run-7", std::move(old_store)).ok());
  EXPECT_TRUE(manager.shard("wf-run-7")->sealed());
  EXPECT_EQ(manager.shard("wf-run-7")->workflow_name(), "wf");

  std::string fresh = manager.BeginWorkflow("wf", 100.0);
  EXPECT_EQ(fresh, "wf-run-8");  // counter resumed past the adopted run
  auto events = manager.shard(fresh)->Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 42);  // seq resumed past the adopted history

  // Adopting over an existing run id is rejected.
  EXPECT_FALSE(
      manager
          .AdoptShard("wf-run-7",
                      std::make_unique<InMemoryProvenanceStore>())
          .ok());
}

}  // namespace
}  // namespace hiway
