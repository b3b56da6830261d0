// Workflow intermediate representation shared by every language front-end
// and consumed by the Hi-WAY application master.
//
// A workflow is a stream of black-box *tasks*: each names a tool, a set of
// input files (DFS paths), and a set of outputs (files, plus optional
// string "stdout" values used by iterative languages for control flow).
// Static languages (DAX, Galaxy, provenance traces) emit every task up
// front; iterative languages (Cuneiform) emit more tasks as results arrive
// (Sec. 3.3 of the paper).

#ifndef HIWAY_LANG_WORKFLOW_H_
#define HIWAY_LANG_WORKFLOW_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"

namespace hiway {

using TaskId = int64_t;
constexpr TaskId kInvalidTask = -1;

/// One declared output of a task.
struct OutputSpec {
  /// Output parameter name (unique within the task).
  std::string param;
  /// DFS path the output will be written to.
  std::string path;
  /// Known size (e.g. from a DAX <uses size=...>); if absent the tool
  /// model derives the size from the inputs at runtime.
  std::optional<int64_t> size_bytes;
  /// Value outputs carry a string (the task's stdout) instead of file
  /// contents; used for data-dependent control flow.
  bool is_value = false;
};

/// A ready-to-schedule black-box task invocation.
struct TaskSpec {
  TaskId id = kInvalidTask;
  /// Task signature: "invoking the same tools" in the paper's terms; the
  /// runtime estimator keys observations by this.
  std::string signature;
  /// Human-readable command line, recorded in provenance.
  std::string command;
  /// Tool profile to execute (defaults to `signature` when empty).
  std::string tool;
  /// DFS paths staged in before invocation.
  std::vector<std::string> input_files;
  std::vector<OutputSpec> outputs;
  /// Free-form parameters forwarded to the tool model.
  std::map<std::string, std::string> params;
  /// Container sizing overrides; <= 0 means "use the AM default".
  int vcores = 0;
  double memory_mb = 0.0;

  const std::string& ToolName() const { return tool.empty() ? signature : tool; }
};

/// Outcome of one (successful or failed) task attempt, reported back to
/// the language front-end and the provenance manager.
struct TaskResult {
  TaskId id = kInvalidTask;
  std::string signature;
  Status status;
  /// Node the attempt ran on.
  int32_t node = -1;
  /// Wall-clock (virtual) timings.
  double started_at = 0.0;
  double finished_at = 0.0;
  /// Seconds spent moving inputs from DFS / outputs to DFS.
  double stage_in_seconds = 0.0;
  double stage_out_seconds = 0.0;
  /// The task's stdout (consumed by value outputs).
  std::string stdout_value;
  /// Files produced: (path, size in bytes).
  std::vector<std::pair<std::string, int64_t>> produced_files;

  double Makespan() const { return finished_at - started_at; }
};

/// A language front-end: parses a workflow and feeds tasks to the driver.
///
/// Contract: the driver calls Init() exactly once, then OnTaskCompleted()
/// once per *successful* task (retries are internal to the driver). The
/// source returns newly discovered tasks from either call. The workflow is
/// finished when every emitted task completed and IsDone() is true.
class WorkflowSource {
 public:
  virtual ~WorkflowSource() = default;

  virtual std::string name() const = 0;

  /// True when the complete task graph is known after Init(); required for
  /// static scheduling policies (round-robin, HEFT). Iterative languages
  /// return false, and the driver rejects static schedulers for them, as
  /// the paper does for Cuneiform (Sec. 3.4).
  virtual bool IsStatic() const = 0;

  /// Parses the workflow and returns the initially inferable tasks.
  virtual Result<std::vector<TaskSpec>> Init() = 0;

  /// Digests a completed task; may discover new tasks (iterative model).
  virtual Result<std::vector<TaskSpec>> OnTaskCompleted(
      const TaskResult& result) = 0;

  /// True once the source will not emit further tasks and all control-flow
  /// targets are resolved.
  virtual bool IsDone() const = 0;

  /// The workflow's final products (DFS paths), for reporting.
  virtual std::vector<std::string> Targets() const = 0;
};

/// WorkflowSource over a fixed task list. The static front-ends
/// (DAX/Galaxy/trace/CWL) are thin subclasses whose Parse factories fill
/// the protected fields; tests construct it directly.
class StaticWorkflowSource : public WorkflowSource {
 public:
  StaticWorkflowSource(std::string name, std::vector<TaskSpec> tasks,
                       std::vector<std::string> targets = {})
      : name_(std::move(name)),
        tasks_(std::move(tasks)),
        targets_(std::move(targets)) {}

  std::string name() const override { return name_; }
  bool IsStatic() const override { return true; }
  /// Hands the task list over instead of copying it, since Init() runs
  /// once per source (see the WorkflowSource contract).
  Result<std::vector<TaskSpec>> Init() override {
    handed_over_ = tasks_.size();
    return std::exchange(tasks_, {});
  }

  Result<std::vector<TaskSpec>> OnTaskCompleted(const TaskResult&) override {
    ++completed_;
    return std::vector<TaskSpec>{};
  }

  bool IsDone() const override { return completed_ >= task_count(); }
  std::vector<std::string> Targets() const override { return targets_; }

  size_t task_count() const { return tasks_.size() + handed_over_; }
  /// The full task list, as Init() will return it; empty once Init() has
  /// handed it over (footprint admission estimates from it before the AM
  /// runs).
  const std::vector<TaskSpec>& tasks() const { return tasks_; }

  /// Workflow input files as (path, size in bytes or 0) pairs: consumed
  /// but never produced, so the caller must stage them into DFS before
  /// submitting. Empty for front-ends whose inputs are bound elsewhere
  /// (Galaxy resolves placeholders against caller-supplied paths).
  const std::vector<std::pair<std::string, int64_t>>& required_inputs()
      const {
    return required_inputs_;
  }

 protected:
  StaticWorkflowSource() = default;

  std::string name_;
  std::vector<TaskSpec> tasks_;
  std::vector<std::string> targets_;
  std::vector<std::pair<std::string, int64_t>> required_inputs_;

 private:
  size_t handed_over_ = 0;
  size_t completed_ = 0;
};

}  // namespace hiway

#endif  // HIWAY_LANG_WORKFLOW_H_
