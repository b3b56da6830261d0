#include "src/gc/footprint.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/lang/workflow_validate.h"

namespace hiway {

FootprintEstimate EstimateFootprint(const std::vector<TaskSpec>& tasks,
                                    const std::vector<std::string>& targets,
                                    const Dfs* dfs) {
  FootprintEstimate est;
  std::set<std::string> target_set(targets.begin(), targets.end());

  TaskGraph graph(tasks);
  auto produced = [&](const std::string& path) {
    return graph.ProducerOf(path).has_value();
  };
  std::map<std::string, int> remaining_consumers;
  std::vector<std::set<std::string>> inputs_of(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (const std::string& path : tasks[i].input_files) {
      if (inputs_of[i].insert(path).second) ++remaining_consumers[path];
    }
  }

  // Known sizes: external inputs from the DFS, produced paths as tasks
  // "run" below.
  std::map<std::string, int64_t> size_of;
  int64_t live = 0;
  for (const auto& [path, count] : remaining_consumers) {
    (void)count;
    if (produced(path)) continue;
    int64_t size = 0;
    if (dfs != nullptr) {
      auto stat = dfs->Stat(path);
      if (stat.ok()) size = stat->size_bytes;
    }
    size_of[path] = size;
    est.input_bytes += size;
    live += size;  // staged inputs are live for the whole run
  }
  est.peak_bytes = live;

  // Serial GC-enabled walk in topological order: produce outputs, then
  // retire inputs whose last consumer just finished. Tasks on a cycle
  // (malformed graphs) follow in declaration order, so the walk still
  // visits every task.
  auto run = [&](size_t i) {
    const TaskSpec& task = tasks[i];
    int64_t input_sum = 0;
    for (const std::string& path : inputs_of[i]) {
      auto size = size_of.find(path);
      if (size != size_of.end()) input_sum += size->second;
    }
    for (const OutputSpec& out : task.outputs) {
      if (out.is_value) continue;
      int64_t size;
      if (out.size_bytes.has_value()) {
        size = *out.size_bytes;
      } else {
        size = input_sum;  // tool-model fallback: outputs scale with inputs
        est.exact_sizes = false;
      }
      size_of[out.path] = size;
      est.total_produced_bytes += size;
      live += size;
      est.peak_bytes = std::max(est.peak_bytes, live);
      // Dead on arrival: no consumer, not a target.
      if (remaining_consumers.find(out.path) == remaining_consumers.end() &&
          target_set.count(out.path) == 0) {
        live -= size;
      }
    }
    for (const std::string& path : inputs_of[i]) {
      auto count = remaining_consumers.find(path);
      if (count == remaining_consumers.end()) continue;
      if (--count->second > 0) continue;
      remaining_consumers.erase(count);
      // Only scope-produced, non-target files are collectible; staged
      // external inputs stay for the whole run.
      if (produced(path) && target_set.count(path) == 0) {
        auto size = size_of.find(path);
        if (size != size_of.end()) live -= size->second;
      }
    }
  };
  for (size_t i : graph.order()) run(i);
  for (size_t i : graph.cyclic()) run(i);
  return est;
}

}  // namespace hiway
