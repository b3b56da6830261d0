// Tracing-overhead benchmark: the fig6 utilization workload (SNV
// variant calling, S3 ingest) run with execution tracing off vs. on.
//
// Tracing must be free twice over:
//
//   virtual cost  — a tracer only *records*; enabling it must not
//                   change a single scheduling decision, so the
//                   traced run's virtual makespan must equal the
//                   untraced run's EXACTLY (same seed, same events).
//   wall cost     — the recording fast path (one load and a branch
//                   when disabled; a buffer append when enabled) is
//                   gated at < 5 % overhead: the median, over paired
//                   reps, of the traced/untraced ratio of wall time
//                   per run (see docs/observability.md).
//
// One run of the workload takes milliseconds, far too short to resolve
// 5 %. So each rep alternates untraced and traced runs until each arm
// has spent at least kMinArmWallS inside the workflow, and an arm's wall
// time per run is its mean. The gate is the median paired ratio; its
// quartiles are printed beside it.
//
// Also reports events recorded, events/sec, ns/event, and — because the
// trace should explain the run — the critical-path breakdown of the
// traced run. `--json` emits one JSON object for CI artifacts,
// `--quick` shrinks the workload and repetition count.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/client.h"
#include "src/infra/karamel.h"
#include "src/obs/trace_analyzer.h"
#include "src/obs/tracer.h"

namespace hiway {
namespace {

constexpr double kMaxOverheadFraction = 0.05;
// Minimum wall time each arm of a rep spends running the workflow.
constexpr double kMinArmWallS = 0.5;

struct RunOutcome {
  double virtual_makespan_s = 0.0;
  double wall_seconds = 0.0;
  uint64_t events_recorded = 0;
  uint64_t events_dropped = 0;
  std::vector<TraceEvent> events;  // traced runs only
};

Result<RunOutcome> RunOnce(int workers, uint64_t seed, bool tracing,
                           bool keep_events) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", StrFormat("%d", workers + 2));
  karamel.SetAttribute("cluster/cores", "2");
  karamel.SetAttribute("cluster/memory_mb", "7680");
  karamel.SetAttribute("cluster/disk_mbps", "150");
  karamel.SetAttribute("cluster/nic_mbps", "62");
  karamel.SetAttribute("cluster/switch_mbps", "20000");
  karamel.SetAttribute("cluster/s3_mbps", "20000");
  karamel.SetAttribute("dfs/first_datanode", "2");
  karamel.SetAttribute("snv/chunks", StrFormat("%d", workers * 8));
  karamel.SetAttribute("snv/chunk_mb", "512");
  karamel.SetAttribute("snv/cram", "1");
  karamel.SetAttribute("snv/ingest", "s3");
  karamel.SetAttribute("seed",
                       StrFormat("%llu", (unsigned long long)seed));
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(SnvWorkflowRecipe());
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, karamel.Converge());
  d->tracer.set_enabled(tracing);

  HiWayClient client(d.get());
  HiWayOptions options;
  options.container_vcores = 2;
  options.container_memory_mb = 7000;
  options.am_node = 1;
  options.am_vcores = 2;
  options.am_memory_mb = 7000;
  options.seed = seed;
  HIWAY_ASSIGN_OR_RETURN(
      ApplicationId blocker,
      d->rm->RegisterApplication("hadoop-masters", nullptr, 2, 7000, 0));
  (void)blocker;

  auto wall_start = std::chrono::steady_clock::now();
  HIWAY_ASSIGN_OR_RETURN(WorkflowReport report,
                         client.Run("snv-calling", "fcfs", options));
  auto wall_end = std::chrono::steady_clock::now();
  HIWAY_RETURN_IF_ERROR(report.status);

  RunOutcome out;
  out.virtual_makespan_s = report.Makespan();
  out.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  TracerStats stats = d->tracer.Stats();
  out.events_recorded = stats.recorded;
  out.events_dropped = stats.dropped;
  if (keep_events) out.events = d->tracer.Drain();
  return out;
}

struct Arm {
  double wall_s = 0.0;  // summed over the arm's runs
  int runs = 0;
  RunOutcome first;  // the arm's first run (events kept if asked)

  double WallPerRun() const { return wall_s / runs; }
};

// One paired rep: untraced and traced runs alternate until each arm has
// spent at least kMinArmWallS in the workflow, so that host drift slower
// than one run hits both arms alike. Every run of either arm must reach
// the first run's virtual makespan.
Status RunRep(int workers, uint64_t seed, bool keep_events, Arm* off,
              Arm* on) {
  while (off->wall_s < kMinArmWallS || on->wall_s < kMinArmWallS) {
    for (Arm* arm : {off, on}) {
      bool tracing = arm == on;
      HIWAY_ASSIGN_OR_RETURN(
          RunOutcome run, RunOnce(workers, seed, tracing,
                                  keep_events && tracing && arm->runs == 0));
      double want = off->runs > 0 ? off->first.virtual_makespan_s
                                  : run.virtual_makespan_s;
      if (run.virtual_makespan_s != want) {
        return Status::RuntimeError(StrFormat(
            "FAIL: %s run changed the virtual makespan (%.6f != %.6f)",
            tracing ? "a traced" : "an untraced", run.virtual_makespan_s,
            want));
      }
      arm->wall_s += run.wall_seconds;
      if (arm->runs++ == 0) arm->first = std::move(run);
    }
  }
  return Status::OK();
}

// Linear-interpolated quantile q in [0, 1] of `xs`.
double Quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

int Main(int argc, char** argv) {
  bool quick = bench::QuickMode(argc, argv);
  bool json = bench::JsonMode(argc, argv);
  int workers = quick ? 4 : 8;
  int reps = quick ? 5 : 7;
  const uint64_t seed = 42;  // identical seed: paired runs, same schedule

  // Untimed warm-up: first simulation pays allocator / page-fault
  // costs that would otherwise be charged to the "off" leg.
  (void)RunOnce(workers, seed, /*tracing=*/false, /*keep_events=*/false);

  if (!json) {
    std::printf("bench_trace_overhead: fig6 SNV workload, %d workers, "
                "%d paired reps (tracing off vs. on), >= %.1fs per arm\n\n",
                workers, reps, kMinArmWallS);
  }

  std::vector<double> wall_off, wall_on, ratios;
  double makespan = -1.0;
  uint64_t events_recorded = 0, events_dropped = 0;
  int runs = 0;  // per arm, over all reps
  std::vector<TraceEvent> sample_events;
  for (int r = 0; r < reps; ++r) {
    Arm off, on;
    Status st = RunRep(workers, seed, /*keep_events=*/r == 0, &off, &on);
    if (!st.ok()) {
      // Gate 1: recording must not perturb the simulation.
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    wall_off.push_back(off.WallPerRun());
    wall_on.push_back(on.WallPerRun());
    ratios.push_back(on.WallPerRun() / off.WallPerRun());
    runs += off.runs;
    makespan = off.first.virtual_makespan_s;
    events_recorded = on.first.events_recorded;
    events_dropped = std::max(events_dropped, on.first.events_dropped);
    if (r == 0) sample_events = std::move(on.first.events);
    if (!json) {
      std::printf("  rep %d: %d runs per arm, wall/run off=%.4fs "
                  "on=%.4fs ratio=%.4f  virtual %.1fs\n",
                  r, off.runs, off.WallPerRun(), on.WallPerRun(),
                  ratios.back(), makespan);
    }
  }

  double med_off = bench::Median(wall_off);
  double med_on = bench::Median(wall_on);
  double overhead = bench::Median(ratios) - 1.0;
  double overhead_q1 = Quantile(ratios, 0.25) - 1.0;
  double overhead_q3 = Quantile(ratios, 0.75) - 1.0;
  double events_per_sec =
      med_on > 0.0 ? static_cast<double>(events_recorded) / med_on : 0.0;
  double ns_per_event =
      events_recorded > 0
          ? (med_on - med_off) * 1e9 / static_cast<double>(events_recorded)
          : 0.0;

  TraceAnalyzer analyzer(std::move(sample_events));
  CriticalPathReport path = analyzer.CriticalPath();

  // Gate 2: < 5 % median paired overhead.
  bool pass = overhead < kMaxOverheadFraction && events_dropped == 0;

  if (json) {
    std::printf(
        "{\"bench\": \"trace_overhead\", \"workers\": %d, \"reps\": %d, "
        "\"min_arm_wall_s\": %.2f, \"runs_per_arm\": %d, "
        "\"wall_median_off_s\": %.6f, \"wall_median_on_s\": %.6f, "
        "\"overhead_fraction\": %.6f, \"overhead_q1\": %.6f, "
        "\"overhead_q3\": %.6f, \"overhead_gate\": %.2f, "
        "\"virtual_makespan_s\": %.3f, \"virtual_makespan_identical\": true, "
        "\"events_recorded\": %llu, \"events_dropped\": %llu, "
        "\"events_per_sec\": %.0f, \"marginal_ns_per_event\": %.1f, "
        "\"critical_path\": {\"total_s\": %.3f, \"wait_s\": %.3f, "
        "\"data_s\": %.3f, \"compute_s\": %.3f, \"steps\": %zu}, "
        "\"pass\": %s}\n",
        workers, reps, kMinArmWallS, runs, med_off, med_on,
        overhead, overhead_q1, overhead_q3, kMaxOverheadFraction, makespan,
        (unsigned long long)events_recorded,
        (unsigned long long)events_dropped, events_per_sec, ns_per_event,
        path.total_s, path.wait_s, path.data_s, path.compute_s,
        path.steps.size(), pass ? "true" : "false");
  } else {
    std::printf("\n  median wall/run: off=%.4fs on=%.4fs\n", med_off,
                med_on);
    std::printf("  overhead (median paired ratio - 1): %.2f%%, quartiles "
                "%.2f%% .. %.2f%% (gate < %.0f%%)\n",
                overhead * 100.0, overhead_q1 * 100.0, overhead_q3 * 100.0,
                kMaxOverheadFraction * 100.0);
    std::printf("  events: %llu recorded, %llu dropped (%.0f events/s, "
                "%.1f marginal ns/event)\n",
                (unsigned long long)events_recorded,
                (unsigned long long)events_dropped, events_per_sec,
                ns_per_event);
    std::printf("  %s\n", path.Summary().c_str());
    std::printf("  virtual makespans identical across all runs\n");
    std::printf("\n%s\n", pass ? "PASS" : "FAIL");
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace hiway

int main(int argc, char** argv) { return hiway::Main(argc, argv); }
