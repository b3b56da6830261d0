#include "src/lang/workflow_validate.h"

#include <algorithm>
#include <set>
#include <string>

#include "src/common/strings.h"

namespace hiway {

TaskGraph::TaskGraph(const std::vector<TaskSpec>& tasks)
    : parents_(tasks.size()), children_(tasks.size()) {
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (const OutputSpec& out : tasks[i].outputs) {
      if (!out.is_value) producer_of_.emplace(out.path, i);
    }
  }
  // last_child[p] == i once p is recorded as a parent of task i.
  std::vector<size_t> last_child(tasks.size(), tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (const std::string& path : tasks[i].input_files) {
      std::optional<size_t> p = ProducerOf(path);
      if (!p.has_value() || *p == i || last_child[*p] == i) continue;
      last_child[*p] = i;
      parents_[i].push_back(*p);
      children_[*p].push_back(i);
    }
  }
  // Kahn's algorithm, with order_ itself as the FIFO queue.
  std::vector<size_t> in_degree(tasks.size());
  order_.reserve(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    in_degree[i] = parents_[i].size();
    if (in_degree[i] == 0) order_.push_back(i);
  }
  for (size_t head = 0; head < order_.size(); ++head) {
    for (size_t child : children_[order_[head]]) {
      if (--in_degree[child] == 0) order_.push_back(child);
    }
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (in_degree[i] > 0) cyclic_.push_back(i);
  }
}

std::optional<size_t> TaskGraph::ProducerOf(std::string_view path) const {
  auto it = producer_of_.find(path);
  if (it == producer_of_.end()) return std::nullopt;
  return it->second;
}

Status ValidateWorkflowTasks(const std::vector<TaskSpec>& tasks) {
  TaskGraph graph(tasks);
  std::set<TaskId> ids;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const TaskSpec& task = tasks[i];
    if (task.id <= 0) {
      return Status::InvalidArgument(
          StrFormat("task '%s' has non-positive id %lld",
                    task.signature.c_str(), static_cast<long long>(task.id)));
    }
    if (!ids.insert(task.id).second) {
      return Status::InvalidArgument(StrFormat(
          "duplicate task id %lld", static_cast<long long>(task.id)));
    }
    if (task.signature.empty()) {
      return Status::InvalidArgument(StrFormat(
          "task %lld has an empty signature", static_cast<long long>(task.id)));
    }
    std::set<std::string> inputs(task.input_files.begin(),
                                 task.input_files.end());
    for (const std::string& in : task.input_files) {
      if (in.empty()) {
        return Status::InvalidArgument(
            StrFormat("task %lld lists an empty input path",
                      static_cast<long long>(task.id)));
      }
    }
    for (const OutputSpec& out : task.outputs) {
      if (out.path.empty()) {
        return Status::InvalidArgument(
            StrFormat("task %lld declares an output with an empty path",
                      static_cast<long long>(task.id)));
      }
      if (out.size_bytes.has_value() && *out.size_bytes < 0) {
        return Status::InvalidArgument(StrFormat(
            "task %lld output '%s' declares negative size %lld",
            static_cast<long long>(task.id), out.path.c_str(),
            static_cast<long long>(*out.size_bytes)));
      }
      if (inputs.count(out.path) > 0) {
        return Status::InvalidArgument(StrFormat(
            "task %lld uses '%s' as both input and output (self-dependency)",
            static_cast<long long>(task.id), out.path.c_str()));
      }
      if (out.is_value) continue;
      size_t first = *graph.ProducerOf(out.path);
      if (first != i) {
        return Status::InvalidArgument(StrFormat(
            "output '%s' is produced by both task %lld and task %lld",
            out.path.c_str(), static_cast<long long>(tasks[first].id),
            static_cast<long long>(task.id)));
      }
    }
  }
  // A cycle would deadlock the AM; name its smallest task id.
  if (!graph.cyclic().empty()) {
    TaskId id = tasks[graph.cyclic().front()].id;
    for (size_t i : graph.cyclic()) id = std::min(id, tasks[i].id);
    return Status::InvalidArgument(StrFormat(
        "task dependency cycle through task %lld (workflow would deadlock)",
        static_cast<long long>(id)));
  }
  return Status::OK();
}

}  // namespace hiway
