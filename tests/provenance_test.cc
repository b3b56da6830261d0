// Tests for the Provenance Manager: event recording, JSON-lines trace
// round-trips, and the statistics queries feeding adaptive scheduling.

#include "src/core/provenance.h"

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/lang/trace_source.h"
#include "tests/oracles/provenance_oracle.h"

namespace hiway {
namespace {

TaskSpec MakeSpec(TaskId id, std::string signature) {
  TaskSpec spec;
  spec.id = id;
  spec.signature = signature;
  spec.tool = signature;
  spec.command = signature + " --args";
  return spec;
}

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

TEST(ProvenanceEventTest, TypeStringsRoundTrip) {
  for (ProvenanceEventType type :
       {ProvenanceEventType::kWorkflowStart, ProvenanceEventType::kWorkflowEnd,
        ProvenanceEventType::kTaskStart, ProvenanceEventType::kTaskEnd,
        ProvenanceEventType::kFileStageIn,
        ProvenanceEventType::kFileStageOut}) {
    auto parsed =
        ProvenanceEventTypeFromString(ProvenanceEventTypeToString(type));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, type);
  }
  EXPECT_FALSE(ProvenanceEventTypeFromString("garbage").ok());
}

TEST(ProvenanceEventTest, JsonRoundTripTaskEnd) {
  ProvenanceEvent ev;
  ev.type = ProvenanceEventType::kTaskEnd;
  ev.run_id = "wf-run-0";
  ev.timestamp = 12.5;
  ev.task_id = 42;
  ev.signature = "bowtie2";
  ev.tool = "bowtie2";
  ev.node = 3;
  ev.node_name = "node-003";
  ev.duration = 99.25;
  ev.success = true;
  ev.stdout_value = "aligned";
  auto round = ProvenanceEvent::FromJson(ev.ToJson());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->task_id, 42);
  EXPECT_EQ(round->signature, "bowtie2");
  EXPECT_EQ(round->node, 3);
  EXPECT_DOUBLE_EQ(round->duration, 99.25);
  EXPECT_EQ(round->stdout_value, "aligned");
}

TEST(ProvenanceManagerTest, RecordsWorkflowLifecycle) {
  ProvenanceManager manager;
  std::string run_id = manager.BeginWorkflow("snv", 100.0);
  EXPECT_FALSE(run_id.empty());
  manager.shard(run_id)->RecordWorkflowEnd(250.0, true);
  auto events = manager.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, ProvenanceEventType::kWorkflowStart);
  EXPECT_EQ(events[1].type, ProvenanceEventType::kWorkflowEnd);
  EXPECT_DOUBLE_EQ(events[1].total_runtime, 150.0);
  EXPECT_EQ(events[0].run_id, run_id);
  // The run's shard is sealed by the workflow-end event.
  ASSERT_NE(manager.shard(run_id), nullptr);
  EXPECT_TRUE(manager.shard(run_id)->sealed());
}

TEST(ProvenanceManagerTest, RunIdsAreUniquePerRun) {
  ProvenanceManager manager;
  std::string a = manager.BeginWorkflow("wf", 0.0);
  manager.shard(a)->RecordWorkflowEnd(1.0, true);
  std::string b = manager.BeginWorkflow("wf", 2.0);
  EXPECT_NE(a, b);
  EXPECT_EQ(manager.shard_count(), 2u);
}

TEST(ProvenanceManagerTest, TaskAndFileEventsCarryDetail) {
  ProvenanceManager manager;
  std::string run = manager.BeginWorkflow("wf", 0.0);
  TaskSpec spec = MakeSpec(7, "varscan");
  manager.shard(run)->RecordTaskStart(spec, 2, "node-002", 5.0);
  manager.shard(run)->RecordFileStageIn(7, "/in/a.bam", 1024, 0.5, 5.5);
  manager.shard(run)->RecordTaskEnd(MakeResult(7, "varscan", 2, 5.0, 25.0),
                                    "node-002");
  manager.shard(run)->RecordFileStageOut(7, "/out/a.vcf", 2048, 0.25, 25.0);
  auto events = manager.Events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[1].command, "varscan --args");
  EXPECT_EQ(events[1].tool, "varscan");
  EXPECT_EQ(events[2].file_path, "/in/a.bam");
  EXPECT_EQ(events[2].size_bytes, 1024);
  EXPECT_DOUBLE_EQ(events[3].duration, 20.0);
  EXPECT_EQ(events[4].type, ProvenanceEventType::kFileStageOut);
}

// Satellite: a trace captured up to an ARBITRARY crash point is a valid
// executable workflow prefix. Record a 3-task chain, truncate after each
// event in turn, and round-trip the prefix through TraceSource with
// allow_incomplete: every prefix with at least one completed task must
// rebuild, replaying exactly the completed tasks.
TEST(ProvenanceManagerTest, CrashPrefixIsAnExecutableWorkflowPrefix) {
  ProvenanceManager manager;
  std::string run = manager.BeginWorkflow("chain", 0.0);
  // t1 -> t2 -> t3, each consuming its predecessor's output.
  for (TaskId id = 1; id <= 3; ++id) {
    TaskSpec spec = MakeSpec(id, StrFormat("tool%lld",
                                           static_cast<long long>(id)));
    double start = 10.0 * static_cast<double>(id);
    manager.shard(run)->RecordTaskStart(spec, 0, "node-000", start);
    if (id > 1) {
      manager.shard(run)->RecordFileStageIn(
          id, StrFormat("/f%lld", static_cast<long long>(id - 1)), 100, 0.1,
          start);
    }
    manager.shard(run)->RecordTaskEnd(
        MakeResult(id, spec.signature, 0, start, start + 5.0), "node-000");
    manager.shard(run)->RecordFileStageOut(
        id, StrFormat("/f%lld", static_cast<long long>(id)), 100, 0.1,
        start + 5.0);
  }
  manager.shard(run)->RecordWorkflowEnd(40.0, true);
  std::vector<ProvenanceEvent> full = manager.Events();

  // Walk every truncation point (a crash can interrupt anywhere) and
  // count completed tasks in the prefix by hand.
  for (size_t cut = 1; cut <= full.size(); ++cut) {
    std::vector<ProvenanceEvent> prefix(full.begin(), full.begin() + cut);
    size_t completed = 0;
    for (const ProvenanceEvent& ev : prefix) {
      if (ev.type == ProvenanceEventType::kTaskEnd && ev.success) ++completed;
    }
    auto source =
        TraceSource::FromEvents(prefix, run, /*allow_incomplete=*/true);
    if (completed == 0) {
      EXPECT_FALSE(source.ok()) << "cut=" << cut;
      continue;
    }
    ASSERT_TRUE(source.ok())
        << "cut=" << cut << ": " << source.status().ToString();
    EXPECT_EQ((*source)->task_count(), completed) << "cut=" << cut;
    // Round-trip through the JSON-lines serialisation too.
    auto reparsed = TraceSource::Parse(SerializeTrace(prefix), run,
                                       /*allow_incomplete=*/true);
    ASSERT_TRUE(reparsed.ok()) << "cut=" << cut;
    EXPECT_EQ((*reparsed)->task_count(), completed);
  }

  // Without allow_incomplete, a strict parse of a mid-task prefix fails
  // (the prefix ends right after task 2 started).
  std::vector<ProvenanceEvent> torn(full.begin(), full.begin() + 5);
  EXPECT_FALSE(TraceSource::FromEvents(torn, run).ok());
}

TEST(ProvenanceManagerTest, LatestRuntimeQueriesNewestSuccess) {
  ProvenanceManager manager;
  std::string run = manager.BeginWorkflow("wf", 0.0);
  manager.shard(run)->RecordTaskEnd(MakeResult(1, "align", 0, 0, 30),
                                    "node-000");
  manager.shard(run)->RecordTaskEnd(MakeResult(2, "align", 0, 30, 80),
                                    "node-000");
  manager.shard(run)->RecordTaskEnd(MakeResult(3, "align", 1, 0, 10),
                                    "node-001");
  manager.shard(run)->RecordTaskEnd(MakeResult(4, "align", 0, 80, 200, false),
                                    "node-000");  // failed: ignored
  auto latest = ProvenanceOracle::LatestRuntime(manager.View(), "align", 0);
  ASSERT_TRUE(latest.ok());
  EXPECT_DOUBLE_EQ(*latest, 50.0);
  EXPECT_DOUBLE_EQ(
      *ProvenanceOracle::LatestRuntime(manager.View(), "align", 1), 10.0);
  EXPECT_TRUE(ProvenanceOracle::LatestRuntime(manager.View(), "align", 9)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(ProvenanceOracle::LatestRuntime(manager.View(), "sort", 0)
                  .status()
                  .IsNotFound());
}

TEST(ProvenanceManagerTest, RuntimeObservationsInOrder) {
  ProvenanceManager manager;
  std::string run = manager.BeginWorkflow("wf", 0.0);
  manager.shard(run)->RecordTaskEnd(MakeResult(1, "align", 0, 0, 30),
                                    "node-000");
  manager.shard(run)->RecordTaskEnd(MakeResult(2, "align", 1, 0, 20),
                                    "node-001");
  auto obs = ProvenanceOracle::RuntimeObservations(manager.View(), "align");
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_EQ(obs[0].first, 0);
  EXPECT_DOUBLE_EQ(obs[0].second, 30.0);
  EXPECT_EQ(obs[1].first, 1);
}

TEST(TraceSerializationTest, RoundTripThroughJsonLines) {
  ProvenanceManager manager;
  std::string run = manager.BeginWorkflow("wf", 0.0);
  TaskSpec spec = MakeSpec(1, "align");
  manager.shard(run)->RecordTaskStart(spec, 0, "node-000", 1.0);
  manager.shard(run)->RecordFileStageIn(1, "/in", 100, 0.1, 1.1);
  manager.shard(run)->RecordTaskEnd(MakeResult(1, "align", 0, 1.0, 9.0),
                                    "node-000");
  manager.shard(run)->RecordWorkflowEnd(10.0, true);
  std::string text = manager.View().ExportTrace();
  EXPECT_EQ(static_cast<size_t>(std::count(text.begin(), text.end(), '\n')),
            manager.size());
  auto parsed = ParseTrace(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), manager.size());
  EXPECT_EQ((*parsed)[2].file_path, "/in");
}

TEST(TraceSerializationTest, BlankLinesIgnoredErrorsNameLine) {
  auto ok = ParseTrace("\n\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->empty());
  auto bad = ParseTrace(
      "{\"type\":\"workflow-start\",\"run_id\":\"r\",\"timestamp\":0}\n"
      "not json\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST(TraceSerializationTest, UnknownTypeRejected) {
  auto bad = ParseTrace("{\"type\":\"task-vanished\"}\n");
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace hiway
