// The four workloads bench_e2e replays, each through the public path a
// user takes: Karamel::Converge -> Dfs::IngestFile -> language front-end
// -> HiWayClient / WorkflowService -> SimEngine. Every set-up step is
// timed from outside by the benchmark.

#ifndef HIWAY_BENCH_E2E_SCENARIOS_H_
#define HIWAY_BENCH_E2E_SCENARIOS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench/e2e/profiler.h"
#include "src/common/result.h"

namespace hiway {
namespace e2e {

/// One replay of a workload.
struct Replay {
  /// Metric values by name (metrics.h), except peak_rss_mb and
  /// host.calib_ms, which bench_e2e measures around the replay.
  std::map<std::string, double> values;
  /// Workflows submitted.
  int workflows = 0;
  /// Fingerprint of the sorted DFS (path, size) listing, every
  /// workflow's terminal state and every virtual makespan.
  std::string digest;
};

/// Workload names, in report order.
const std::vector<std::string>& WorkloadNames();

/// Generates the workload's inputs from `seed`, sets up a deployment,
/// and replays it. `quick` shrinks the inputs to smoke-test size.
/// `sampler`, when not null, runs during the replay only. Fails naming
/// the check when a workflow fails or an output is missing.
Result<Replay> RunWorkload(const std::string& name, uint64_t seed, bool quick,
                           StackSampler* sampler);

}  // namespace e2e
}  // namespace hiway

#endif  // HIWAY_BENCH_E2E_SCENARIOS_H_
