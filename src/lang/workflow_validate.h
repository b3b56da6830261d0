// The static task graph of a front-end's task list, and its validity
// checks.
//
// A static workflow's edges follow from its files: a task depends on the
// task that writes a file it reads. TaskGraph derives those edges and a
// topological order once; the validator, the footprint estimator
// (src/gc/footprint.h) and the static workflow schedulers
// (src/core/scheduler.h) all read it.
//
// Every static front-end (DAX, Galaxy, trace, CWL) runs its parsed task
// vector through ValidateWorkflowTasks before handing it to the driver, and
// the fuzz harness uses the same predicate as its "parser returned a valid
// Workflow" invariant: a source must either reject hostile input with a
// Status error or emit a graph that satisfies these rules.

#ifndef HIWAY_LANG_WORKFLOW_VALIDATE_H_
#define HIWAY_LANG_WORKFLOW_VALIDATE_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/lang/workflow.h"

namespace hiway {

/// File-induced dependency graph over a task vector. Tasks are named by
/// their position in that vector, and each distinct path they read or
/// write as a file by a dense file index. Task p is a parent of task c
/// when c reads a path p writes as a file output; value outputs name no
/// file and make no edge, and a task reading its own output is no edge
/// either. Building never fails: a malformed list (a cycle, a path
/// written twice) still yields a graph, and the validator turns it into
/// an error.
///
/// The graph keeps views of the tasks' paths, so the task vector must
/// outlive it and stay unmodified.
class TaskGraph {
 public:
  explicit TaskGraph(const std::vector<TaskSpec>& tasks);

  /// The file index of `path`, if some task reads or writes it as a file.
  std::optional<size_t> FileOf(std::string_view path) const {
    auto it = file_of_.find(path);
    if (it == file_of_.end()) return std::nullopt;
    return it->second;
  }
  /// The first task that writes `path` as a file output, if any.
  std::optional<size_t> ProducerOf(std::string_view path) const {
    std::optional<size_t> f = FileOf(path);
    return f.has_value() ? producer(*f) : std::nullopt;
  }
  /// The number of file indices, and the path and first producer of `f`.
  size_t num_files() const { return files_.size(); }
  const std::string& path(size_t f) const { return *files_[f].path; }
  std::optional<size_t> producer(size_t f) const { return files_[f].producer; }
  /// Distinct files task `i` reads, in the order it first reads them.
  const std::vector<size_t>& inputs(size_t i) const { return inputs_[i]; }
  /// Distinct producers of task `i`'s inputs, in the order it reads them.
  const std::vector<size_t>& parents(size_t i) const { return parents_[i]; }
  /// Distinct readers of task `i`'s outputs, in declaration order.
  const std::vector<size_t>& children(size_t i) const { return children_[i]; }
  /// Kahn topological order: sources in declaration order, then each
  /// task's children in declaration order as their last parent is
  /// visited. Tasks on (or downstream of) a cycle are left out.
  const std::vector<size_t>& order() const { return order_; }
  /// The tasks order() leaves out, in declaration order; empty for a DAG.
  const std::vector<size_t>& cyclic() const { return cyclic_; }

 private:
  struct File { const std::string* path; std::optional<size_t> producer; };

  std::unordered_map<std::string_view, size_t> file_of_;
  std::vector<File> files_;
  std::vector<std::vector<size_t>> inputs_;
  std::vector<std::vector<size_t>> parents_;
  std::vector<std::vector<size_t>> children_;
  std::vector<size_t> order_;
  std::vector<size_t> cyclic_;
};

/// Checks that `tasks` form a well-formed static task graph:
///  - task ids are positive and unique,
///  - signatures and file paths are non-empty,
///  - declared output sizes are non-negative,
///  - no task lists the same path as both input and output (self-dependency),
///  - no two tasks produce the same file path (ambiguous producer),
///  - the file-induced dependency graph is acyclic.
/// Returns OK or an InvalidArgument naming the offending task/path.
Status ValidateWorkflowTasks(const std::vector<TaskSpec>& tasks);

}  // namespace hiway

#endif  // HIWAY_LANG_WORKFLOW_VALIDATE_H_
