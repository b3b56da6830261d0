#include "src/gc/footprint.h"

#include <algorithm>
#include <optional>

#include "src/lang/workflow_validate.h"

namespace hiway {

FootprintEstimate EstimateFootprint(const std::vector<TaskSpec>& tasks,
                                    const std::vector<std::string>& targets,
                                    const Dfs* dfs) {
  FootprintEstimate est;
  TaskGraph graph(tasks);
  const size_t files = graph.num_files();
  std::vector<bool> target(files, false);
  for (const std::string& path : targets) {
    if (std::optional<size_t> f = graph.FileOf(path)) target[*f] = true;
  }
  // Per file: the tasks that read it and have not run yet.
  std::vector<int> consumers(files, 0);
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (size_t f : graph.inputs(i)) ++consumers[f];
  }

  // Known sizes: external inputs from the DFS, produced files as tasks
  // "run" below.
  std::vector<std::optional<int64_t>> size_of(files);
  int64_t live = 0;
  for (size_t f = 0; f < files; ++f) {
    if (consumers[f] == 0 || graph.producer(f).has_value()) continue;
    int64_t size = 0;
    if (dfs != nullptr) {
      auto stat = dfs->Stat(graph.path(f));
      if (stat.ok()) size = stat->size_bytes;
    }
    size_of[f] = size;
    est.input_bytes += size;
    live += size;  // staged inputs are live for the whole run
  }
  est.peak_bytes = live;

  // Serial GC-enabled walk in topological order: produce outputs, then
  // retire inputs whose last consumer just finished. Tasks on a cycle
  // (malformed graphs) follow in declaration order, so the walk still
  // visits every task.
  auto run = [&](size_t i) {
    int64_t input_sum = 0;
    for (size_t f : graph.inputs(i)) input_sum += size_of[f].value_or(0);
    for (const OutputSpec& out : tasks[i].outputs) {
      if (out.is_value) continue;
      size_t f = *graph.FileOf(out.path);
      int64_t size;
      if (out.size_bytes.has_value()) {
        size = *out.size_bytes;
      } else {
        size = input_sum;  // tool-model fallback: outputs scale with inputs
        est.exact_sizes = false;
      }
      size_of[f] = size;
      est.total_produced_bytes += size;
      live += size;
      est.peak_bytes = std::max(est.peak_bytes, live);
      // Dead on arrival: no consumer left, not a target.
      if (consumers[f] == 0 && !target[f]) live -= size;
    }
    for (size_t f : graph.inputs(i)) {
      if (consumers[f] == 0 || --consumers[f] > 0) continue;
      // Only scope-produced, non-target files are collectible; staged
      // external inputs stay for the whole run.
      if (graph.producer(f).has_value() && !target[f]) {
        live -= size_of[f].value_or(0);
      }
    }
  };
  for (size_t i : graph.order()) run(i);
  for (size_t i : graph.cyclic()) run(i);
  return est;
}

}  // namespace hiway
