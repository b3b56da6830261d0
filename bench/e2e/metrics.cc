#include "bench/e2e/metrics.h"

#include <algorithm>

#include "bench/e2e/scenarios.h"
#include "src/common/strings.h"

namespace hiway {
namespace e2e {
namespace {

Status SameMetrics(const Json* listed, const std::vector<MetricDef>& reported,
                   const char* section) {
  if (listed == nullptr || !listed->is_array()) {
    return Status::InvalidArgument(
        StrFormat("BENCHMARK.json has no %s list", section));
  }
  const auto& items = listed->as_array();
  if (items.size() != reported.size()) {
    return Status::InvalidArgument(
        StrFormat("BENCHMARK.json %s: %zu listed, bench_e2e reports %zu",
                  section, items.size(), reported.size()));
  }
  for (size_t i = 0; i < items.size(); ++i) {
    const Json& m = items[i];
    const MetricDef& r = reported[i];
    if (m.GetString("name") != r.name || m.GetString("unit") != r.unit ||
        m.GetString("better") != r.better) {
      return Status::InvalidArgument(StrFormat(
          "BENCHMARK.json %s[%zu]: listed %s (%s, %s), bench_e2e reports "
          "%s (%s, %s)",
          section, i, m.GetString("name").c_str(),
          m.GetString("unit").c_str(), m.GetString("better").c_str(),
          r.name.c_str(), r.unit.c_str(), r.better.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace

Status CheckBenchmarkJson(const Json& bench) {
  HIWAY_RETURN_IF_ERROR(
      SameMetrics(bench.Find("end_to_end"), EndToEndMetrics(), "end_to_end"));
  HIWAY_RETURN_IF_ERROR(
      SameMetrics(bench.Find("per_layer"), PerLayerMetrics(), "per_layer"));
  const Json* workloads = bench.Find("workloads");
  if (workloads == nullptr || !workloads->is_array() ||
      workloads->as_array().size() != WorkloadNames().size()) {
    return Status::InvalidArgument(
        "BENCHMARK.json workloads: want one entry per bench_e2e workload");
  }
  for (size_t i = 0; i < WorkloadNames().size(); ++i) {
    if (workloads->as_array()[i].GetString("name") != WorkloadNames()[i]) {
      return Status::InvalidArgument("BENCHMARK.json workloads: want " +
                                     WorkloadNames()[i] + " at position " +
                                     std::to_string(i));
    }
  }
  double setup_bound = 0.0;
  double max_bound = 0.0;
  for (const Json& m : bench.Find("end_to_end")->as_array()) {
    double bound = m.GetNumber("bound", -1.0);
    if (bound <= 0.0 || bound > 0.25) {
      return Status::InvalidArgument("BENCHMARK.json " + m.GetString("name") +
                                     ": bound outside (0, 0.25]");
    }
    if (m.GetString("name") == "setup_s") setup_bound = bound;
    max_bound = std::max(max_bound, bound);
  }
  if (setup_bound != max_bound) {
    return Status::InvalidArgument(
        "BENCHMARK.json: setup_s must carry the largest bound");
  }
  return Status::OK();
}

}  // namespace e2e
}  // namespace hiway
