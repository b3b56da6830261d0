// Tests for the execution-tracing subsystem (src/obs/): trace-buffer
// overwrite and drain order, critical-path extraction against
// brute-force enumeration, exporter round-trips, and an end-to-end
// traced deployment run.

#include <algorithm>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/core/client.h"
#include "src/infra/karamel.h"
#include "src/obs/exporters.h"
#include "src/obs/trace_analyzer.h"
#include "src/obs/tracer.h"

namespace hiway {
namespace {

// ---- Tracer --------------------------------------------------------------

TEST(TracerTest, OverflowOverwritesOldestAndCountsDrops) {
  Tracer tracer(/*clock=*/nullptr, /*ring_capacity=*/16);
  tracer.set_enabled(true);
  for (int e = 0; e < 100; ++e) {
    TraceEvent ev;
    ev.name = "e";
    ev.task = e;
    ev.timestamp = static_cast<double>(e);
    tracer.Record(ev);
  }
  TracerStats stats = tracer.Stats();
  EXPECT_EQ(stats.recorded, 100u);
  EXPECT_EQ(stats.dropped, 84u);
  std::vector<TraceEvent> events = tracer.Drain();
  ASSERT_EQ(events.size(), 16u);
  // The survivors are exactly the newest 16, oldest first.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].task, static_cast<int64_t>(84 + i));
  }
}

// Drain orders by timestamp, and events with equal timestamps keep the
// order they were recorded in — before the buffer wraps and after,
// when the oldest survivor no longer sits in the first slot.
TEST(TracerTest, DrainOrdersByTimestampThenRecordOrder) {
  Tracer tracer(/*clock=*/nullptr, /*ring_capacity=*/8);
  tracer.set_enabled(true);
  auto record = [&tracer](std::initializer_list<double> timestamps) {
    for (double ts : timestamps) {
      TraceEvent ev;
      ev.name = "e";
      ev.task = static_cast<int64_t>(tracer.Stats().recorded);
      ev.timestamp = ts;
      tracer.Record(ev);
    }
  };
  auto drained_tasks = [&tracer] {
    std::vector<int64_t> tasks;
    for (const TraceEvent& ev : tracer.Drain()) {
      EXPECT_EQ(ev.seq, static_cast<uint64_t>(ev.task));
      tasks.push_back(ev.task);
    }
    return tasks;
  };

  record({3.0, 1.0, 2.0, 1.0, 3.0, 0.5});  // tasks 0..5
  EXPECT_EQ(tracer.Stats().dropped, 0u);
  EXPECT_EQ(drained_tasks(), (std::vector<int64_t>{5, 1, 3, 2, 0, 4}));

  // Tasks 6..12: 13 events in 8 slots, so tasks 0..4 are overwritten
  // and task 5 is the oldest survivor, in slot 5.
  record({2.0, 1.0, 3.0, 1.0, 2.0, 0.5, 1.0});
  EXPECT_EQ(tracer.Stats().recorded, 13u);
  EXPECT_EQ(tracer.Stats().dropped, 5u);
  EXPECT_EQ(drained_tasks(),
            (std::vector<int64_t>{5, 11, 7, 9, 12, 6, 10, 8}));

  // Long runs of ties in a wrapped buffer, against a sort on
  // (timestamp, seq) of the events that survive.
  Tracer wrapped(/*clock=*/nullptr, /*ring_capacity=*/64);
  wrapped.set_enabled(true);
  std::vector<std::pair<double, uint64_t>> want;
  for (int e = 0; e < 200; ++e) {
    TraceEvent ev;
    ev.name = "e";
    ev.timestamp = 1.0 + (e * 7) % 5;
    wrapped.Record(ev);
    if (e >= 200 - 64) want.emplace_back(ev.timestamp, e);
  }
  std::sort(want.begin(), want.end());
  std::vector<std::pair<double, uint64_t>> got;
  for (const TraceEvent& ev : wrapped.Drain()) {
    got.emplace_back(ev.timestamp, ev.seq);
  }
  EXPECT_EQ(got, want);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  TraceEvent ev;
  ev.name = "ignored";
  tracer.Record(ev);
  tracer.Instant(SpanCategory::kTask, "ignored");
  EXPECT_EQ(tracer.Stats().recorded, 0u);
  EXPECT_TRUE(tracer.Drain().empty());
}

TEST(TracerTest, ClearForgetsEventsAndKeepsTracerUsable) {
  Tracer tracer(/*clock=*/nullptr, /*ring_capacity=*/64);
  tracer.set_enabled(true);
  tracer.Instant(SpanCategory::kTask, "before", -1, -1, -1, -1, 0.0, -1);
  EXPECT_EQ(tracer.Drain().size(), 1u);
  tracer.Clear();
  EXPECT_TRUE(tracer.Drain().empty());
  tracer.Instant(SpanCategory::kTask, "after", -1, -1, -1, -1, 0.0, -1);
  std::vector<TraceEvent> events = tracer.Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "after");
}

// ---- TraceAnalyzer / critical path ---------------------------------------

/// Hand-built task: emits the span taxonomy the AM produces.
struct FakeTask {
  int64_t id;
  double ready, alloc, start, end;
  double stage = 0.0;
  std::vector<int64_t> deps;
};

std::vector<TraceEvent> EventsFor(const std::vector<FakeTask>& tasks,
                                  double wf_end) {
  std::vector<TraceEvent> events;
  uint64_t seq = 0;
  auto push = [&](SpanCategory cat, SpanPhase ph, const char* name, double t,
                  int64_t task, double value = 0.0, int64_t aux = -1) {
    TraceEvent ev;
    ev.category = cat;
    ev.phase = ph;
    ev.name = name;
    ev.timestamp = t;
    ev.seq = seq++;
    ev.app = 1;
    ev.task = task;
    ev.value = value;
    ev.aux = aux;
    events.push_back(ev);
  };
  push(SpanCategory::kWorkflow, SpanPhase::kBegin, "workflow", 0.0, -1);
  for (const FakeTask& t : tasks) {
    push(SpanCategory::kTask, SpanPhase::kInstant, "task_ready", t.ready,
         t.id);
    push(SpanCategory::kTask, SpanPhase::kBegin, "localize", t.alloc, t.id);
    push(SpanCategory::kTask, SpanPhase::kEnd, "localize", t.start, t.id,
         t.start - t.alloc);
    push(SpanCategory::kTask, SpanPhase::kBegin, "execute", t.start, t.id);
    push(SpanCategory::kTask, SpanPhase::kEnd, "execute", t.end, t.id,
         t.end - t.start);
    if (t.stage > 0.0) {
      push(SpanCategory::kTask, SpanPhase::kInstant, "stage_in", t.end, t.id,
           t.stage);
    }
    for (int64_t d : t.deps) {
      push(SpanCategory::kTask, SpanPhase::kInstant, "task_dep", t.ready,
           t.id, 0.0, d);
    }
  }
  push(SpanCategory::kWorkflow, SpanPhase::kEnd, "workflow", wf_end, -1,
       wf_end);
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
              return a.seq < b.seq;
            });
  return events;
}

/// Brute force: enumerate every dependency-ordered chain, return the
/// maximum total weight.
double BruteForceLongestChain(const std::map<int64_t, TaskTimeline>& tasks) {
  double best = 0.0;
  std::function<void(int64_t, double)> walk = [&](int64_t id, double acc) {
    const TaskTimeline& t = tasks.at(id);
    acc += t.TotalSeconds();
    best = std::max(best, acc);
    for (int64_t d : t.deps) walk(d, acc);
  };
  for (const auto& [id, t] : tasks) walk(id, 0.0);
  return best;
}

TEST(TraceAnalyzerTest, CriticalPathMatchesBruteForceOnHandBuiltDag) {
  // Diamond with a long tail:
  //   1 -> {2, 3} -> 4 -> 5, where 3 is slower than 2 and 4 waited.
  std::vector<FakeTask> dag = {
      {1, 0.0, 1.0, 2.0, 10.0, 0.5, {}},
      {2, 10.0, 11.0, 12.0, 15.0, 0.0, {1}},
      {3, 10.0, 11.0, 12.0, 20.0, 1.0, {1}},
      {4, 20.0, 25.0, 26.0, 30.0, 0.0, {2, 3}},
      {5, 30.0, 30.5, 31.0, 33.0, 0.0, {4}},
  };
  TraceAnalyzer analyzer(EventsFor(dag, 33.0));
  ASSERT_EQ(analyzer.tasks().size(), 5u);

  CriticalPathReport report = analyzer.CriticalPath();
  double brute = BruteForceLongestChain(analyzer.tasks());
  EXPECT_NEAR(report.total_s, brute, 1e-9);
  // The chain is 1 -> 3 -> 4 -> 5 (3 dominates 2).
  ASSERT_EQ(report.steps.size(), 4u);
  EXPECT_EQ(report.steps[0].task, 1);
  EXPECT_EQ(report.steps[1].task, 3);
  EXPECT_EQ(report.steps[2].task, 4);
  EXPECT_EQ(report.steps[3].task, 5);
  // Segment sums reconcile with the total.
  EXPECT_NEAR(report.wait_s + report.data_s + report.compute_s,
              report.total_s, 1e-9);
  EXPECT_EQ(report.makespan_s, 33.0);
  // Task 4's queue wait (20 -> 25) must show up as wait attribution.
  EXPECT_GE(report.wait_s, 5.0);
  EXPECT_FALSE(report.Summary().empty());
}

TEST(TraceAnalyzerTest, CriticalPathMatchesBruteForceOnRandomDags) {
  // Seeded pseudo-random layered DAGs; deps always point at lower ids so
  // the graph is acyclic by construction.
  uint64_t state = 12345;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>(state >> 33);
  };
  for (int round = 0; round < 20; ++round) {
    int n = 2 + static_cast<int>(next() % 10);
    std::vector<FakeTask> dag;
    double t0 = 0.0;
    for (int i = 1; i <= n; ++i) {
      FakeTask t;
      t.id = i;
      t.ready = t0;
      t.alloc = t.ready + (next() % 50) / 10.0;
      t.start = t.alloc + 0.5;
      t.end = t.start + 1.0 + (next() % 100) / 10.0;
      t.stage = (next() % 20) / 10.0;
      for (int d = 1; d < i; ++d) {
        if (next() % 3 == 0) t.deps.push_back(d);
      }
      t0 += (next() % 30) / 10.0;
      dag.push_back(t);
    }
    TraceAnalyzer analyzer(EventsFor(dag, t0 + 100.0));
    EXPECT_NEAR(analyzer.CriticalPath().total_s,
                BruteForceLongestChain(analyzer.tasks()), 1e-9)
        << "round " << round;
  }
}

TEST(TraceAnalyzerTest, RetryKeepsLastCompletedAttempt) {
  std::vector<TraceEvent> events;
  FakeTask attempt1{7, 0.0, 1.0, 2.0, 5.0, 0.0, {}};
  FakeTask attempt2{7, 6.0, 8.0, 9.0, 12.0, 0.0, {}};
  std::vector<TraceEvent> both = EventsFor({attempt1}, 0.0);
  std::vector<TraceEvent> second = EventsFor({attempt2}, 12.0);
  // Merge, keeping order (drop the first run's workflow end at 0.0).
  for (const TraceEvent& ev : both) {
    if (ev.phase == SpanPhase::kEnd &&
        ev.category == SpanCategory::kWorkflow) {
      continue;
    }
    events.push_back(ev);
  }
  for (const TraceEvent& ev : second) {
    if (ev.phase == SpanPhase::kBegin &&
        ev.category == SpanCategory::kWorkflow) {
      continue;
    }
    events.push_back(ev);
  }
  TraceAnalyzer analyzer(std::move(events));
  ASSERT_EQ(analyzer.tasks().size(), 1u);
  const TaskTimeline& t = analyzer.tasks().at(7);
  EXPECT_EQ(t.ready_at, 6.0);
  EXPECT_EQ(t.finished_at, 12.0);
  EXPECT_EQ(t.attempts, 2);
}

// ---- Exporters ------------------------------------------------------------

TEST(ExportersTest, ChromeTraceRoundTripsThroughParser) {
  std::vector<FakeTask> dag = {
      {1, 0.0, 1.0, 2.0, 10.0, 0.5, {}},
      {2, 10.0, 11.0, 12.0, 15.0, 0.0, {1}},
  };
  std::vector<TraceEvent> events = EventsFor(dag, 15.0);
  std::string json = ExportChromeTrace(events);

  auto parsed = Json::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json* list = parsed->Find("traceEvents");
  ASSERT_NE(list, nullptr);
  ASSERT_TRUE(list->is_array());
  ASSERT_FALSE(list->as_array().empty());
  int complete = 0, instant = 0;
  for (const Json& ev : list->as_array()) {
    ASSERT_TRUE(ev.is_object());
    // Chrome trace_event required fields.
    EXPECT_FALSE(ev.GetString("name").empty());
    EXPECT_FALSE(ev.GetString("ph").empty());
    ASSERT_NE(ev.Find("ts"), nullptr);
    ASSERT_NE(ev.Find("pid"), nullptr);
    ASSERT_NE(ev.Find("tid"), nullptr);
    std::string ph = ev.GetString("ph");
    if (ph == "X") {
      ++complete;
      ASSERT_NE(ev.Find("dur"), nullptr);
      EXPECT_GE(ev.GetNumber("dur"), 0.0);
    } else {
      EXPECT_EQ(ph, "i");
      ++instant;
    }
  }
  // Each task contributes localize + execute complete events, plus the
  // workflow span: 2*2 + 1 = 5 "X" events.
  EXPECT_EQ(complete, 5);
  EXPECT_GT(instant, 0);
  // Timestamps are microseconds: task 1's execute begins at 2s = 2e6 us.
  bool found_execute = false;
  for (const Json& ev : list->as_array()) {
    if (ev.GetString("name") == "execute" && ev.GetInt("tid") == 1) {
      found_execute = true;
      EXPECT_NEAR(ev.GetNumber("ts"), 2e6, 1.0);
      EXPECT_NEAR(ev.GetNumber("dur"), 8e6, 1.0);
    }
  }
  EXPECT_TRUE(found_execute);
}

TEST(ExportersTest, UnmatchedBeginDegradesToInstant) {
  TraceEvent ev;
  ev.category = SpanCategory::kTask;
  ev.phase = SpanPhase::kBegin;
  ev.name = "dangling";
  ev.timestamp = 1.0;
  std::string json = ExportChromeTrace({ev});
  auto parsed = Json::Parse(json);
  ASSERT_TRUE(parsed.ok());
  const Json& list = *parsed->Find("traceEvents");
  ASSERT_EQ(list.as_array().size(), 1u);
  EXPECT_EQ(list.as_array()[0].GetString("ph"), "i");
}

TEST(ExportersTest, PrometheusSnapshotCountsSpans) {
  std::vector<FakeTask> dag = {{1, 0.0, 1.0, 2.0, 10.0, 0.5, {}}};
  std::string text = ExportPrometheusText(EventsFor(dag, 10.0));
  EXPECT_NE(text.find("# TYPE hiway_trace_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("hiway_span_total{category=\"task\",name=\"execute\"}"),
            std::string::npos);
  EXPECT_NE(
      text.find("hiway_span_seconds_total{category=\"task\",name=\"execute\"}"),
      std::string::npos);
}

// ---- End-to-end: a traced deployment run ---------------------------------

TEST(ObsEndToEndTest, TracedWorkflowYieldsConsistentCriticalPath) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "4");
  karamel.SetAttribute("obs/tracing", "on");
  karamel.SetAttribute("snv/chunks", "6");
  karamel.SetAttribute("snv/chunk_mb", "64");
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(SnvWorkflowRecipe());
  auto deployment = karamel.Converge();
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  Deployment* d = deployment->get();
  ASSERT_TRUE(d->tracer.enabled());

  HiWayClient client(d);
  auto report = client.Run("snv-calling", "data-aware", HiWayOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->status.ok()) << report->status.ToString();

  std::vector<TraceEvent> events = d->tracer.Drain();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(d->tracer.Stats().dropped, 0u);

  // The trace covers every layer that was exercised.
  std::set<std::string> names;
  for (const TraceEvent& ev : events) names.insert(ev.name);
  for (const char* expected :
       {"workflow", "task_ready", "localize", "execute",
        "container_requested", "container_allocated", "container",
        "allocation_pass", "am_decision", "task_dep", "prov_append"}) {
    EXPECT_TRUE(names.count(expected) != 0u)
        << "missing span name: " << expected;
  }

  TraceAnalyzer analyzer(events);
  EXPECT_EQ(static_cast<int>(analyzer.tasks().size()),
            report->tasks_completed);
  EXPECT_NEAR(analyzer.makespan(), report->Makespan(), 1e-9);
  CriticalPathReport path = analyzer.CriticalPath();
  EXPECT_GT(path.total_s, 0.0);
  // A dependency chain can never take longer than the whole run.
  EXPECT_LE(path.total_s, report->Makespan() + 1e-9);
  EXPECT_NEAR(path.total_s, BruteForceLongestChain(analyzer.tasks()), 1e-9);
  EXPECT_GT(path.compute_s, 0.0);

  // Both exporters accept the real trace.
  auto parsed = Json::Parse(ExportChromeTrace(events));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed->Find("traceEvents")->as_array().empty());
  EXPECT_NE(ExportPrometheusText(events).find("hiway_span_total"),
            std::string::npos);
}

}  // namespace
}  // namespace hiway
