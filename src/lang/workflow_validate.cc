#include "src/lang/workflow_validate.h"

#include <algorithm>
#include <set>
#include <string>

#include "src/common/strings.h"

namespace hiway {

TaskGraph::TaskGraph(const std::vector<TaskSpec>& tasks)
    : inputs_(tasks.size()), parents_(tasks.size()), children_(tasks.size()) {
  auto file = [this](const std::string& path) {
    auto [it, inserted] = file_of_.emplace(path, files_.size());
    if (inserted) files_.push_back({&path, std::nullopt});
    return it->second;
  };
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (const OutputSpec& out : tasks[i].outputs) {
      if (out.is_value) continue;
      std::optional<size_t>& first = files_[file(out.path)].producer;
      if (!first.has_value()) first = i;
    }
  }
  // last_reader[f] == i once task i lists file f; last_child[p] == i once
  // p is recorded as a parent of task i.
  std::vector<size_t> last_reader;
  std::vector<size_t> last_child(tasks.size(), tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (const std::string& path : tasks[i].input_files) {
      size_t f = file(path);
      last_reader.resize(files_.size(), tasks.size());
      if (last_reader[f] == i) continue;
      last_reader[f] = i;
      inputs_[i].push_back(f);
      std::optional<size_t> p = files_[f].producer;
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

Status ValidateWorkflowTasks(const std::vector<TaskSpec>& tasks) {
  TaskGraph graph(tasks);
  std::set<TaskId> ids;
  std::vector<size_t> written;  // the current task's output files so far
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
    for (const std::string& in : task.input_files) {
      if (in.empty()) {
        return Status::InvalidArgument(
            StrFormat("task %lld lists an empty input path",
                      static_cast<long long>(task.id)));
      }
    }
    written.clear();
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
      std::optional<size_t> file = graph.FileOf(out.path);
      const std::vector<size_t>& inputs = graph.inputs(i);
      if (file.has_value() &&
          std::find(inputs.begin(), inputs.end(), *file) != inputs.end()) {
        return Status::InvalidArgument(StrFormat(
            "task %lld uses '%s' as both input and output (self-dependency)",
            static_cast<long long>(task.id), out.path.c_str()));
      }
      if (out.is_value) continue;
      size_t first = *graph.producer(*file);
      if (first != i) {
        return Status::InvalidArgument(StrFormat(
            "output '%s' is produced by both task %lld and task %lld",
            out.path.c_str(), static_cast<long long>(tasks[first].id),
            static_cast<long long>(task.id)));
      }
      if (std::find(written.begin(), written.end(), *file) != written.end()) {
        return Status::InvalidArgument(
            StrFormat("task %lld declares output '%s' twice",
                      static_cast<long long>(task.id), out.path.c_str()));
      }
      written.push_back(*file);
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
