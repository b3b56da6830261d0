#include "src/lang/trace_source.h"

#include <map>
#include <set>

#include "src/common/strings.h"
#include "src/lang/workflow_validate.h"

namespace hiway {

namespace {

/// Task-scoped events must carry a usable task id and, for stage events, a
/// non-negative size and non-empty path; corrupt values would otherwise
/// flow straight into TaskSpec/OutputSpec fields.
Status CheckTaskEvent(const ProvenanceEvent& ev) {
  if (ev.task_id <= 0) {
    return Status::ParseError(StrFormat(
        "trace event for run '%s' has non-positive task id %lld",
        ev.run_id.c_str(), static_cast<long long>(ev.task_id)));
  }
  if (ev.type == ProvenanceEventType::kFileStageIn ||
      ev.type == ProvenanceEventType::kFileStageOut) {
    if (ev.file_path.empty()) {
      return Status::ParseError(
          StrFormat("trace stage event for task %lld has an empty file path",
                    static_cast<long long>(ev.task_id)));
    }
    if (ev.size_bytes < 0) {
      return Status::ParseError(StrFormat(
          "trace stage event for task %lld file '%s' has negative size %lld",
          static_cast<long long>(ev.task_id), ev.file_path.c_str(),
          static_cast<long long>(ev.size_bytes)));
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<TraceSource>> TraceSource::Parse(
    std::string_view trace_text, const std::string& run_id,
    bool allow_incomplete) {
  HIWAY_ASSIGN_OR_RETURN(std::vector<ProvenanceEvent> events,
                         ParseTrace(trace_text));
  return FromEvents(events, run_id, allow_incomplete);
}

Result<std::unique_ptr<TraceSource>> TraceSource::FromView(
    const ProvenanceView& view, const std::string& run_id,
    bool allow_incomplete) {
  return FromEvents(view.Events(), run_id, allow_incomplete);
}

Result<std::unique_ptr<TraceSource>> TraceSource::FromEvents(
    const std::vector<ProvenanceEvent>& events, const std::string& run_id,
    bool allow_incomplete) {
  // Choose the run to replay.
  std::string selected = run_id;
  if (selected.empty()) {
    for (const ProvenanceEvent& ev : events) {
      if (ev.type == ProvenanceEventType::kWorkflowStart) {
        selected = ev.run_id;
        break;
      }
    }
  }
  if (selected.empty()) {
    return Status::InvalidArgument("trace contains no workflow run");
  }

  auto source = std::unique_ptr<TraceSource>(new TraceSource());
  source->name_ = selected + "-replay";

  // Assemble per-task specs from start/end/file events. A task may have
  // several attempts; the successful end event wins and stage events of
  // failed attempts are superseded by set semantics on paths.
  struct Rebuilt {
    TaskSpec spec;
    bool has_start = false;
    bool succeeded = false;
    std::set<std::string> inputs;
    std::map<std::string, int64_t> outputs;  // path -> size
    std::map<std::string, int64_t> staged_inputs;  // path -> size
  };
  std::map<TaskId, Rebuilt> by_task;
  for (const ProvenanceEvent& ev : events) {
    if (ev.run_id != selected) continue;
    switch (ev.type) {
      case ProvenanceEventType::kWorkflowStart:
        if (!ev.workflow_name.empty()) {
          source->name_ = ev.workflow_name + "-replay";
        }
        break;
      case ProvenanceEventType::kTaskStart: {
        HIWAY_RETURN_IF_ERROR(CheckTaskEvent(ev));
        Rebuilt& r = by_task[ev.task_id];
        r.has_start = true;
        r.spec.id = ev.task_id;
        r.spec.signature = ev.signature;
        r.spec.command = ev.command;
        r.spec.tool = ev.tool;
        break;
      }
      case ProvenanceEventType::kTaskEnd:
        HIWAY_RETURN_IF_ERROR(CheckTaskEvent(ev));
        if (ev.success) by_task[ev.task_id].succeeded = true;
        break;
      case ProvenanceEventType::kFileStageIn: {
        HIWAY_RETURN_IF_ERROR(CheckTaskEvent(ev));
        Rebuilt& r = by_task[ev.task_id];
        r.inputs.insert(ev.file_path);
        r.staged_inputs[ev.file_path] = ev.size_bytes;
        break;
      }
      case ProvenanceEventType::kFileStageOut:
        HIWAY_RETURN_IF_ERROR(CheckTaskEvent(ev));
        by_task[ev.task_id].outputs[ev.file_path] = ev.size_bytes;
        break;
      case ProvenanceEventType::kWorkflowEnd:
        break;
      case ProvenanceEventType::kTaskCacheHit:
        // A cache hit is not an execution: replay re-resolves it against
        // the live cache instead of memoising a task that never ran here.
        break;
    }
  }
  if (by_task.empty()) {
    return Status::InvalidArgument("run '" + selected +
                                   "' has no task events in the trace");
  }

  std::set<std::string> produced;
  std::set<std::string> consumed;
  std::map<std::string, int64_t> consumed_sizes;
  for (auto& [id, r] : by_task) {
    if (!r.has_start) {
      if (allow_incomplete) continue;  // crash prefix: drop the fragment
      return Status::ParseError(StrFormat(
          "trace has events for task %lld but no task-start record",
          static_cast<long long>(id)));
    }
    if (!r.succeeded) {
      if (allow_incomplete) continue;  // crash prefix: task was in flight
      return Status::InvalidArgument(StrFormat(
          "task %lld never succeeded in the recorded run; the trace is "
          "not re-executable",
          static_cast<long long>(id)));
    }
    r.spec.input_files.assign(r.inputs.begin(), r.inputs.end());
    int out_index = 0;
    for (const auto& [path, size] : r.outputs) {
      OutputSpec out;
      out.param = StrFormat("out%d", out_index++);
      out.path = path;
      // Replay the recorded size exactly: re-execution reproduces the
      // run's data volumes independent of tool-model defaults.
      out.size_bytes = size;
      source->targets_.push_back(path);  // pruned below
      produced.insert(path);
      r.spec.outputs.push_back(std::move(out));
    }
    for (const std::string& in : r.spec.input_files) {
      consumed.insert(in);
      consumed_sizes[in] = r.staged_inputs[in];
    }
    source->tasks_.push_back(r.spec);
  }

  if (source->tasks_.empty()) {
    return Status::InvalidArgument(
        "run '" + selected +
        "' has no completed tasks; nothing to replay from the prefix");
  }

  // Required inputs: consumed but never produced in this run.
  for (const std::string& path : consumed) {
    if (produced.find(path) == produced.end()) {
      source->required_inputs_.emplace_back(path, consumed_sizes[path]);
    }
  }
  // Targets: produced but never consumed.
  std::vector<std::string> targets;
  for (const std::string& path : source->targets_) {
    if (consumed.find(path) == consumed.end()) targets.push_back(path);
  }
  source->targets_ = std::move(targets);
  HIWAY_RETURN_IF_ERROR(ValidateWorkflowTasks(source->tasks_)
                            .WithContext("invalid trace task graph"));
  return source;
}

}  // namespace hiway
