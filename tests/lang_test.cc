// Tests for the static language front-ends: Pegasus DAX, Galaxy JSON, and
// re-executable provenance traces.

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/lang/dax_source.h"
#include "src/lang/galaxy_source.h"
#include "src/lang/trace_source.h"

namespace hiway {
namespace {

// ------------------------------------------------------------------- DAX --

constexpr char kSmallDax[] = R"(<?xml version="1.0" encoding="UTF-8"?>
<adag name="diamond">
  <job id="ID01" name="preprocess">
    <argument>-i f.a -o f.b1 -o f.b2</argument>
    <uses file="f.a" link="input" size="1048576"/>
    <uses file="f.b1" link="output" size="524288"/>
    <uses file="f.b2" link="output" size="524288"/>
  </job>
  <job id="ID02" name="findrange">
    <uses file="f.b1" link="input"/>
    <uses file="f.c1" link="output"/>
  </job>
  <job id="ID03" name="findrange">
    <uses file="f.b2" link="input"/>
    <uses file="f.c2" link="output"/>
  </job>
  <job id="ID04" name="analyze">
    <uses file="f.c1" link="input"/>
    <uses file="f.c2" link="input"/>
    <uses file="f.d" link="output" size="2048"/>
  </job>
  <child ref="ID02"><parent ref="ID01"/></child>
  <child ref="ID03"><parent ref="ID01"/></child>
  <child ref="ID04"><parent ref="ID02"/><parent ref="ID03"/></child>
</adag>
)";

TEST(DaxSourceTest, ParsesDiamondWorkflow) {
  auto source = DaxSource::Parse(kSmallDax);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->name(), "diamond");
  EXPECT_EQ((*source)->task_count(), 4u);
  EXPECT_TRUE((*source)->IsStatic());
  // Required input: f.a only; target: f.d only.
  ASSERT_EQ((*source)->required_inputs().size(), 1u);
  EXPECT_EQ((*source)->required_inputs()[0].first, "/dax/f.a");
  EXPECT_EQ((*source)->required_inputs()[0].second, 1048576);
  EXPECT_EQ((*source)->Targets(), std::vector<std::string>{"/dax/f.d"});
}

TEST(DaxSourceTest, TasksCarryFilesSizesAndCommands) {
  auto source = DaxSource::Parse(kSmallDax);
  ASSERT_TRUE(source.ok());
  auto tasks = (*source)->Init();
  ASSERT_TRUE(tasks.ok());
  const TaskSpec& pre = (*tasks)[0];
  EXPECT_EQ(pre.signature, "preprocess");
  EXPECT_NE(pre.command.find("-i f.a"), std::string::npos);
  EXPECT_EQ(pre.input_files, std::vector<std::string>{"/dax/f.a"});
  ASSERT_EQ(pre.outputs.size(), 2u);
  EXPECT_EQ(pre.outputs[0].path, "/dax/f.b1");
  ASSERT_TRUE(pre.outputs[0].size_bytes.has_value());
  EXPECT_EQ(*pre.outputs[0].size_bytes, 524288);
  // findrange outputs without size attribute: tool model decides.
  EXPECT_FALSE((*tasks)[1].outputs[0].size_bytes.has_value());
}

TEST(DaxSourceTest, CustomFilePrefix) {
  auto source = DaxSource::Parse(kSmallDax, "/montage/run1/");
  ASSERT_TRUE(source.ok());
  EXPECT_EQ((*source)->required_inputs()[0].first, "/montage/run1/f.a");
}

TEST(DaxSourceTest, CompletionProtocol) {
  auto source = DaxSource::Parse(kSmallDax);
  ASSERT_TRUE(source.ok());
  auto tasks = (*source)->Init();
  ASSERT_TRUE(tasks.ok());
  EXPECT_FALSE((*source)->IsDone());
  for (const TaskSpec& t : *tasks) {
    TaskResult r;
    r.id = t.id;
    r.status = Status::OK();
    auto more = (*source)->OnTaskCompleted(r);
    ASSERT_TRUE(more.ok());
    EXPECT_TRUE(more->empty());
  }
  EXPECT_TRUE((*source)->IsDone());
}

TEST(DaxSourceTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(DaxSource::Parse("<dag></dag>").ok());  // wrong root
  EXPECT_FALSE(DaxSource::Parse("<adag></adag>").ok());  // no jobs
  EXPECT_FALSE(
      DaxSource::Parse("<adag><job name=\"x\"/></adag>").ok());  // no id
  EXPECT_FALSE(
      DaxSource::Parse("<adag><job id=\"1\"/></adag>").ok());  // no name
  EXPECT_FALSE(DaxSource::Parse(
                   "<adag><job id=\"1\" name=\"a\"/>"
                   "<job id=\"1\" name=\"b\"/></adag>")
                   .ok());  // dup id
  EXPECT_FALSE(DaxSource::Parse(
                   "<adag><job id=\"1\" name=\"a\">"
                   "<uses file=\"f\" link=\"inout\"/></job></adag>")
                   .ok());  // bad link
  EXPECT_FALSE(DaxSource::Parse(
                   "<adag><job id=\"1\" name=\"a\"/>"
                   "<child ref=\"nope\"/></adag>")
                   .ok());  // dangling child ref
}

// ---------------------------------------------------------------- Galaxy --

std::string SmallGalaxyWorkflow() {
  return R"({
    "a_galaxy_workflow": "true",
    "name": "mini-rnaseq",
    "steps": {
      "0": {"id": 0, "type": "data_input",
            "inputs": [{"name": "reads"}]},
      "1": {"id": 1, "type": "tool",
            "tool_id": "toolshed/repos/devteam/tophat2/tophat2/2.1.0",
            "input_connections": {"input": {"id": 0, "output_name": "output"}},
            "outputs": [{"name": "hits", "type": "bam"}]},
      "2": {"id": 2, "type": "tool",
            "tool_id": "cufflinks",
            "input_connections": {"input": {"id": 1, "output_name": "hits"}},
            "outputs": [{"name": "transcripts", "type": "gtf"}]}
    }
  })";
}

TEST(GalaxySourceTest, ParsesAndResolvesInputs) {
  std::map<std::string, std::string> inputs = {{"reads", "/in/reads.fq"}};
  auto source = GalaxySource::Parse(SmallGalaxyWorkflow(), inputs);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->name(), "mini-rnaseq");
  EXPECT_EQ((*source)->task_count(), 2u);
  auto tasks = (*source)->Init();
  ASSERT_TRUE(tasks.ok());
  EXPECT_EQ((*tasks)[0].signature, "tophat2");  // versioned id stripped
  EXPECT_EQ((*tasks)[0].input_files,
            std::vector<std::string>{"/in/reads.fq"});
  EXPECT_EQ((*tasks)[1].signature, "cufflinks");  // plain id kept
  // Step 2 consumes step 1's "hits" output path.
  EXPECT_EQ((*tasks)[1].input_files[0], (*tasks)[0].outputs[0].path);
  // Unconsumed outputs are targets.
  EXPECT_EQ((*source)->Targets().size(), 1u);
}

TEST(GalaxySourceTest, UnresolvedPlaceholderFails) {
  auto source = GalaxySource::Parse(SmallGalaxyWorkflow(), {});
  ASSERT_FALSE(source.ok());
  EXPECT_TRUE(source.status().IsInvalidArgument());
  EXPECT_NE(source.status().message().find("reads"), std::string::npos);
}

TEST(GalaxySourceTest, FallbackInputByStepId) {
  std::map<std::string, std::string> inputs = {{"input_0", "/in/x.fq"}};
  auto source = GalaxySource::Parse(SmallGalaxyWorkflow(), inputs);
  ASSERT_TRUE(source.ok());
  auto tasks = (*source)->Init();
  EXPECT_EQ((*tasks)[0].input_files[0], "/in/x.fq");
}

TEST(GalaxySourceTest, MultiInputConnections) {
  const char* doc = R"({
    "name": "merge",
    "steps": {
      "0": {"id": 0, "type": "data_input", "inputs": [{"name": "a"}]},
      "1": {"id": 1, "type": "data_input", "inputs": [{"name": "b"}]},
      "2": {"id": 2, "type": "tool", "tool_id": "merger",
            "input_connections": {"parts": [
               {"id": 0, "output_name": "output"},
               {"id": 1, "output_name": "output"}]},
            "outputs": [{"name": "merged", "type": "tab"}]}
    }
  })";
  auto source = GalaxySource::Parse(
      doc, {{"a", "/in/a"}, {"b", "/in/b"}});
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  auto tasks = (*source)->Init();
  EXPECT_EQ((*tasks)[0].input_files.size(), 2u);
}

TEST(GalaxySourceTest, RejectsBadDocuments) {
  EXPECT_FALSE(GalaxySource::Parse("[]", {}).ok());
  EXPECT_FALSE(GalaxySource::Parse("{\"name\":\"x\"}", {}).ok());
  EXPECT_FALSE(GalaxySource::Parse(
                   R"({"steps": {"0": {"id":0,"type":"tool",
                       "tool_id":"t",
                       "input_connections":{"i":{"id":7}}}}})",
                   {})
                   .ok());  // connection to unknown step
  EXPECT_FALSE(GalaxySource::Parse(
                   R"({"steps": {"0": {"id":0,"type":"tool"}}})", {})
                   .ok());  // tool step without tool_id
}

// ----------------------------------------------------------------- trace --

std::vector<ProvenanceEvent> RecordedRun() {
  ProvenanceManager manager;
  std::string run = manager.BeginWorkflow("two-step", 0.0);
  TaskSpec t1;
  t1.id = 1;
  t1.signature = "align";
  t1.tool = "bowtie2";
  t1.command = "bowtie2 -x ref reads.fq";
  manager.shard(run)->RecordTaskStart(t1, 0, "node-000", 1.0);
  manager.shard(run)->RecordFileStageIn(1, "/in/reads.fq", 1000, 0.2, 1.2);
  TaskResult r1;
  r1.id = 1;
  r1.signature = "align";
  r1.node = 0;
  r1.started_at = 1.0;
  r1.finished_at = 11.0;
  r1.status = Status::OK();
  manager.shard(run)->RecordTaskEnd(r1, "node-000");
  manager.shard(run)->RecordFileStageOut(1, "/work/a.sam", 1500, 0.3, 11.3);
  TaskSpec t2;
  t2.id = 2;
  t2.signature = "sort";
  t2.tool = "samtools-sort";
  manager.shard(run)->RecordTaskStart(t2, 1, "node-001", 12.0);
  manager.shard(run)->RecordFileStageIn(2, "/work/a.sam", 1500, 0.2, 12.2);
  TaskResult r2;
  r2.id = 2;
  r2.signature = "sort";
  r2.node = 1;
  r2.started_at = 12.0;
  r2.finished_at = 20.0;
  r2.status = Status::OK();
  manager.shard(run)->RecordTaskEnd(r2, "node-001");
  manager.shard(run)->RecordFileStageOut(2, "/work/a.bam", 600, 0.1, 20.1);
  manager.shard(run)->RecordWorkflowEnd(21.0, true);
  return manager.Events();
}

TEST(TraceSourceTest, RebuildsTaskGraphFromTrace) {
  auto source = TraceSource::FromEvents(RecordedRun());
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->task_count(), 2u);
  EXPECT_TRUE((*source)->IsStatic());
  auto tasks = (*source)->Init();
  ASSERT_TRUE(tasks.ok());
  const TaskSpec& align = (*tasks)[0];
  EXPECT_EQ(align.signature, "align");
  EXPECT_EQ(align.tool, "bowtie2");  // recorded tool survives the trip
  EXPECT_EQ(align.command, "bowtie2 -x ref reads.fq");
  EXPECT_EQ(align.input_files, std::vector<std::string>{"/in/reads.fq"});
  ASSERT_EQ(align.outputs.size(), 1u);
  EXPECT_EQ(align.outputs[0].path, "/work/a.sam");
  EXPECT_EQ(*align.outputs[0].size_bytes, 1500);  // recorded size replayed
  // Required inputs / targets derived from the file graph.
  ASSERT_EQ((*source)->required_inputs().size(), 1u);
  EXPECT_EQ((*source)->required_inputs()[0].first, "/in/reads.fq");
  EXPECT_EQ((*source)->Targets(), std::vector<std::string>{"/work/a.bam"});
}

TEST(TraceSourceTest, RoundTripsThroughSerializedText) {
  std::string text = SerializeTrace(RecordedRun());
  auto source = TraceSource::Parse(text);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->task_count(), 2u);
  EXPECT_EQ((*source)->name(), "two-step-replay");
}

TEST(TraceSourceTest, SelectsRequestedRun) {
  auto events = RecordedRun();
  auto more = RecordedRun();  // same ids but run_id "two-step-run-0" again
  for (ProvenanceEvent& ev : more) ev.run_id = "other-run";
  events.insert(events.end(), more.begin(), more.end());
  auto source = TraceSource::FromEvents(events, "other-run");
  ASSERT_TRUE(source.ok());
  EXPECT_EQ((*source)->name(), "two-step-replay");
  EXPECT_EQ((*source)->task_count(), 2u);
}

TEST(TraceSourceTest, FailedRunsAreNotReExecutable) {
  auto events = RecordedRun();
  // Mark the sort task's end as failed and drop no other events.
  for (ProvenanceEvent& ev : events) {
    if (ev.type == ProvenanceEventType::kTaskEnd && ev.signature == "sort") {
      ev.success = false;
    }
  }
  auto source = TraceSource::FromEvents(events);
  EXPECT_FALSE(source.ok());
  EXPECT_TRUE(source.status().IsInvalidArgument());
}

TEST(TraceSourceTest, EmptyTraceRejected) {
  EXPECT_FALSE(TraceSource::Parse("").ok());
  EXPECT_FALSE(TraceSource::FromEvents({}).ok());
}

// --- fuzz regressions and negative-case tables (docs/fuzzing.md) ---------
// Every malformed input must fail with an error naming the offending
// token, id, or file — the matching fuzz corpora keep the original
// crashing inputs under tests/fuzz/corpus/<target>/.

void ExpectParseErrorNaming(const Status& status, const std::string& token) {
  EXPECT_NE(status.ToString().find(token), std::string::npos)
      << "error does not name '" << token << "': " << status.ToString();
}

TEST(DaxSourceTest, SelfDependencyRejected) {
  // crash_self_dependency.dax: a job using the same file as input and
  // output produced a task depending on itself; schedulers saw a cycle.
  auto source = DaxSource::Parse(R"(<adag name="loop">
    <job id="j" name="t">
      <uses file="x" link="input"/>
      <uses file="x" link="output" size="1"/>
    </job></adag>)");
  ASSERT_FALSE(source.ok());
  ExpectParseErrorNaming(source.status(), "invalid DAX task graph");
  ExpectParseErrorNaming(source.status(), "self-dependency");
}

TEST(DaxSourceTest, OutputDeclaredTwiceRejected) {
  // crash_output_twice.dax: a job listing one output file twice became a
  // task with two outputs on one path; the producer check only compared
  // different tasks.
  auto source = DaxSource::Parse(R"(<adag><job id="a" name="t">
    <uses file="x" link="output"/><uses file="x" link="output"/>
    </job></adag>)");
  ASSERT_FALSE(source.ok());
  ExpectParseErrorNaming(source.status(), "invalid DAX task graph");
  ExpectParseErrorNaming(source.status(),
                         "task 1 declares output '/dax/x' twice");
}

TEST(DaxSourceTest, MalformedSizesNameTheJobAndToken) {
  auto bad = DaxSource::Parse(R"(<adag name="w"><job id="j1" name="t">
    <uses file="o" link="output" size="12abc"/></job></adag>)");
  ASSERT_FALSE(bad.ok());
  ExpectParseErrorNaming(bad.status(), "12abc");
  ExpectParseErrorNaming(bad.status(), "j1");

  auto negative = DaxSource::Parse(R"(<adag name="w"><job id="j2" name="t">
    <uses file="o" link="output" size="-4"/></job></adag>)");
  ASSERT_FALSE(negative.ok());
  ExpectParseErrorNaming(negative.status(), "negative size");
  ExpectParseErrorNaming(negative.status(), "j2");
}

TEST(GalaxySourceTest, DuplicateStepIdsRejected) {
  // crash_duplicate_id.ga: two steps with the same id collided on one
  // task id, so the rebuilt graph had duplicate producers.
  auto source = GalaxySource::Parse(
      R"({"steps": {"a": {"id": 3, "tool_id": "t"},
                    "b": {"id": 3, "tool_id": "u"}}})",
      {});
  ASSERT_FALSE(source.ok());
  ExpectParseErrorNaming(source.status(), "duplicate Galaxy step id 3");
}

TEST(GalaxySourceTest, CoincidingOutputPathsRejected) {
  // crash_coinciding_outputs.ga: output paths are "<name>.<type>", so the
  // distinct outputs a.b (type c) and a (type b.c) share one path.
  auto source = GalaxySource::Parse(
      R"({"steps": {"0": {"id": 0, "tool_id": "t",
                          "outputs": [{"name": "a.b", "type": "c"},
                                      {"name": "a", "type": "b.c"}]}}})",
      {});
  ASSERT_FALSE(source.ok());
  ExpectParseErrorNaming(source.status(), "invalid Galaxy task graph");
  ExpectParseErrorNaming(source.status(), "task 1 declares output '");
  ExpectParseErrorNaming(source.status(), "/step0/a.b.c' twice");
}

TEST(GalaxySourceTest, OutOfRangeStepIdsRejected) {
  // "id": 1e300 saturates to INT64_MAX under the fixed as_int(); the
  // parser bounds ids so task.id = id + 1 cannot overflow.
  auto source = GalaxySource::Parse(
      R"({"steps": {"0": {"id": 1e300, "tool_id": "t"}}})", {});
  ASSERT_FALSE(source.ok());
  ExpectParseErrorNaming(source.status(), "out-of-range id");
}

TEST(GalaxySourceTest, NonIntegralIdsRejected) {
  // "id": 1.7 used to truncate to step 1, and a connection's "id": 0.5 to
  // step 0; both are now parse errors that name the step.
  auto step = GalaxySource::Parse(
      R"({"steps": {"s": {"id": 1.7, "tool_id": "t"}}})", {});
  ASSERT_FALSE(step.ok());
  ExpectParseErrorNaming(step.status(), "Galaxy step s has non-integral id 1.7");

  auto negative = GalaxySource::Parse(
      R"({"steps": {"0": {"id": -0.5, "tool_id": "t"}}})", {});
  ASSERT_FALSE(negative.ok());
  ExpectParseErrorNaming(negative.status(), "non-integral id -0.5");

  auto connection = GalaxySource::Parse(
      R"({"steps": {
            "0": {"id": 0, "tool_id": "a"},
            "1": {"id": 1, "tool_id": "b",
                  "input_connections": {"in": [{"id": 0, "output_name": "output"},
                                               {"id": 0.5, "output_name": "output"}]}}}})",
      {});
  ASSERT_FALSE(connection.ok());
  ExpectParseErrorNaming(connection.status(),
                         "step 1 input 'in' connects to non-integral step id 0.5");

  // Integral ids written with a fraction or an exponent are still ids.
  auto integral = GalaxySource::Parse(
      R"({"steps": {
            "0": {"id": 0.0, "tool_id": "a"},
            "1": {"id": 1e0, "tool_id": "b",
                  "input_connections": {"in": {"id": 0.0}}}}})",
      {});
  ASSERT_TRUE(integral.ok()) << integral.status().ToString();
  EXPECT_EQ((*integral)->task_count(), 2u);
}

TEST(TraceSourceTest, NonPositiveTaskIdsRejected) {
  // crash_negative_task_id.trace: task_id -5 flowed into TaskSpec.id and
  // violated the scheduler's positive-id contract.
  auto source = TraceSource::Parse(
      "{\"type\": \"workflow-start\", \"run_id\": \"r1\", "
      "\"workflow\": \"w\"}\n"
      "{\"type\": \"task-start\", \"run_id\": \"r1\", \"task_id\": -5, "
      "\"signature\": \"t\"}\n"
      "{\"type\": \"task-end\", \"run_id\": \"r1\", \"task_id\": -5, "
      "\"success\": true}\n");
  ASSERT_FALSE(source.ok());
  ExpectParseErrorNaming(source.status(), "non-positive task id -5");
}

TEST(TraceSourceTest, CorruptStageEventsRejected) {
  const char* header =
      "{\"type\": \"workflow-start\", \"run_id\": \"r1\", "
      "\"workflow\": \"w\"}\n"
      "{\"type\": \"task-start\", \"run_id\": \"r1\", \"task_id\": 1, "
      "\"signature\": \"t\"}\n";
  auto negative_size = TraceSource::Parse(
      std::string(header) +
      "{\"type\": \"file-stage-out\", \"run_id\": \"r1\", \"task_id\": 1, "
      "\"file\": \"/out\", \"size_bytes\": -9}\n"
      "{\"type\": \"task-end\", \"run_id\": \"r1\", \"task_id\": 1, "
      "\"success\": true}\n");
  ASSERT_FALSE(negative_size.ok());
  ExpectParseErrorNaming(negative_size.status(), "negative size -9");

  auto empty_path = TraceSource::Parse(
      std::string(header) +
      "{\"type\": \"file-stage-in\", \"run_id\": \"r1\", \"task_id\": 1, "
      "\"size_bytes\": 5}\n"
      "{\"type\": \"task-end\", \"run_id\": \"r1\", \"task_id\": 1, "
      "\"success\": true}\n");
  ASSERT_FALSE(empty_path.ok());
  ExpectParseErrorNaming(empty_path.status(), "empty file path");
}

}  // namespace
}  // namespace hiway
