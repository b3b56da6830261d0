// Per-workflow peak-footprint estimation: the port of Makeflow's
// dag_node_footprint analysis. Simulates a serial, GC-enabled execution of
// a static task graph and reports the high-water mark of live logical
// bytes — the number WorkflowService admission compares against the DFS
// capacity budget (docs/storage-model.md).

#ifndef HIWAY_GC_FOOTPRINT_H_
#define HIWAY_GC_FOOTPRINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/hdfs/dfs.h"
#include "src/lang/workflow.h"

namespace hiway {

struct FootprintEstimate {
  /// Peak live logical bytes across the simulated run (inputs staged in
  /// DFS + produced-but-not-yet-collected intermediates + targets).
  int64_t peak_bytes = 0;
  /// Sum of all produced output sizes.
  int64_t total_produced_bytes = 0;
  /// Bytes of external inputs (paths no task in the list produces) found
  /// in the DFS at estimation time.
  int64_t input_bytes = 0;
  /// False when some output lacked a declared size and the estimator fell
  /// back to sum-of-inputs; the estimate is then a heuristic.
  bool exact_sizes = true;
};

/// Estimates the storage footprint of executing `tasks` with GC enabled.
/// Walks TaskGraph(tasks).order() (src/lang/workflow_validate.h), the
/// topological order the static schedulers use, adding each task's
/// outputs to the live set and retiring inputs whose last consumer
/// completed (targets and external inputs are never retired); tasks on a
/// cycle follow in declaration order. `dfs` supplies sizes
/// of already-staged external inputs and may be nullptr (inputs then
/// count as zero bytes). Logical bytes — multiply by the effective DFS
/// replication factor for raw capacity.
FootprintEstimate EstimateFootprint(const std::vector<TaskSpec>& tasks,
                                    const std::vector<std::string>& targets,
                                    const Dfs* dfs);

}  // namespace hiway

#endif  // HIWAY_GC_FOOTPRINT_H_
