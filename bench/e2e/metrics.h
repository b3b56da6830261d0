// The metrics bench_e2e reports, by name, unit and direction. BENCHMARK.json
// at the repository root lists the same names; CheckBenchmarkJson() checks
// that the two agree.

#ifndef HIWAY_BENCH_E2E_METRICS_H_
#define HIWAY_BENCH_E2E_METRICS_H_

#include <string>
#include <vector>

#include "bench/e2e/profiler.h"
#include "src/common/json.h"
#include "src/common/status.h"

namespace hiway {
namespace e2e {

struct MetricDef {
  std::string name;
  std::string unit;
  /// "lower" or "higher".
  std::string better;
};

/// What a user of the simulator sees, from untraced replays. Virtual
/// (simulated) seconds carry the unit "sim_s".
inline const std::vector<MetricDef>& EndToEndMetrics() {
  static const auto* metrics = new std::vector<MetricDef>{
      {"run_wall_s", "s", "lower"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
      {"sim_makespan_s", "sim_s", "lower"},
      {"p95_turnaround_s", "sim_s", "lower"},
      {"ok_frac", "ratio", "higher"},
  };
  return *metrics;
}

/// Counters read from each layer's public accessors and the benchmark's
/// own timers around each set-up call, from untraced replays.
inline const std::vector<MetricDef>& LayerCountMetrics() {
  static const auto* metrics = new std::vector<MetricDef>{
      {"sim.engine.events", "count", "lower"},
      {"sim.engine.events_per_s", "1/s", "higher"},
      {"sim.engine.peak_pending", "count", "lower"},
      {"sim.engine.compactions", "count", "lower"},
      {"yarn.passes", "count", "lower"},
      {"yarn.pass_wall_s", "s", "lower"},
      {"yarn.allocations", "count", "lower"},
      {"yarn.preempted", "count", "lower"},
      {"hdfs.metadata_ops", "count", "lower"},
      {"hdfs.local_read_frac", "ratio", "higher"},
      {"hdfs.bytes_written", "bytes", "lower"},
      {"hdfs.files_deleted", "count", "higher"},
      {"hdfs.capacity_rejections", "count", "lower"},
      {"hdfs.ingest_s", "s", "lower"},
      {"core.am.scheduler_invocations", "count", "lower"},
      {"core.am.retry_frac", "ratio", "lower"},
      {"core.provenance.events", "count", "lower"},
      {"cache.result_hit_frac", "ratio", "higher"},
      {"cache.staging_hit_frac", "ratio", "higher"},
      {"gc.files_collected", "count", "higher"},
      {"gc.cache_deferrals", "count", "lower"},
      {"service.rejected", "count", "lower"},
      {"service.submit_s", "s", "lower"},
      {"lang.parse_s", "s", "lower"},
      {"infra.converge_s", "s", "lower"},
      {"workloads.generate_s", "s", "lower"},
      {"host.calib_ms", "ms", "lower"},
  };
  return *metrics;
}

/// Every per-layer metric: the counters above, then each layer's share
/// of the traced replay's samples and the self time that share stands
/// for, then the sampler's own figures.
inline std::vector<MetricDef> PerLayerMetrics() {
  std::vector<MetricDef> out = LayerCountMetrics();
  for (const std::string& layer : Layers()) {
    out.push_back({layer + ".share", "ratio", "lower"});
    out.push_back({layer + ".self_s", "s", "lower"});
  }
  out.push_back({"trace.samples", "count", "higher"});
  out.push_back({"trace.coverage", "ratio", "higher"});
  out.push_back({"trace.overhead_frac", "ratio", "lower"});
  return out;
}

/// OK when `bench` (the parsed BENCHMARK.json) lists exactly the
/// workloads and metrics above, in order and with the same units and
/// directions, every bound lies in (0, 0.25], and setup_s carries the
/// largest bound.
Status CheckBenchmarkJson(const Json& bench);

}  // namespace e2e
}  // namespace hiway

#endif  // HIWAY_BENCH_E2E_METRICS_H_
