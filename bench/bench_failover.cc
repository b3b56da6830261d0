// Failover benchmark: an 8-workflow burst submitted through the
// WorkflowService, run once undisturbed (baseline) and once with AM-node
// kills injected mid-flight. Every submission must still complete;
// the interesting numbers are what the failures cost:
//
//   recovery latency  — AM declared dead -> replacement AM registered
//                       (p50 / p95 / max across all failovers)
//   wasted-work ratio — tasks that had completed before a failure but
//                       were NOT memoised by the replacement attempt,
//                       as a fraction of the completed-at-failure work
//                       (provenance replay should keep this < 0.3)
//   makespan overhead — faulted burst makespan / baseline makespan
//
// The fault schedule is derived from the measured baseline makespan
// (strikes at 25% and 55%), so the kills land while AMs are genuinely
// mid-workflow at any scale. `--json` emits the results as a single
// JSON object for CI artifact collection.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/client.h"
#include "src/core/metrics.h"
#include "src/service/workflow_service.h"
#include "src/sim/fault_injector.h"
#include "src/workloads/workloads.h"

namespace hiway {
namespace {

struct BurstEntry {
  std::string name;
  StagedWorkflow staged;
};

/// Eight workflows: four SNV-calling pipelines and four k-means runs,
/// enough concurrent AMs that a node kill reliably hits one.
std::vector<BurstEntry> MakeBurst(bool quick) {
  std::vector<BurstEntry> burst;
  for (int i = 0; i < 4; ++i) {
    SnvWorkloadOptions snv;
    snv.num_chunks = 4;
    snv.chunk_bytes = (quick ? 16LL : 48LL) << 20;
    snv.input_dir = StrFormat("/in/snv%d", i);
    snv.output_dir = StrFormat("/out/snv%d", i);
    GeneratedWorkload w = MakeSnvCallingWorkflow(snv);
    BurstEntry e;
    e.name = StrFormat("snv-%d", i);
    e.staged.language = "cuneiform";
    e.staged.document = w.document;
    e.staged.inputs = w.inputs;
    burst.push_back(std::move(e));
  }
  for (int i = 0; i < 4; ++i) {
    KmeansWorkloadOptions kmeans;
    kmeans.points_bytes = (quick ? 8LL : 24LL) << 20;
    kmeans.converge_after = 3;
    kmeans.input_path = StrFormat("/in/kmeans%d/points.csv", i);
    GeneratedWorkload w = MakeKmeansWorkflow(kmeans);
    BurstEntry e;
    e.name = StrFormat("kmeans-%d", i);
    e.staged.language = "cuneiform";
    e.staged.document = w.document;
    e.staged.inputs = w.inputs;
    burst.push_back(std::move(e));
  }
  return burst;
}

struct RunStats {
  double makespan_s = 0.0;
  int succeeded = 0;
  int total = 0;
  int tasks_completed = 0;
  int am_failures = 0;
  std::vector<double> recovery_latency_s;
  int completed_at_failure = 0;  // sum over failovers
  int memoised = 0;              // sum of tasks_memoised on failed-over subs
  FaultCounters faults;
};

/// One burst run; `fault_spec` empty means the undisturbed baseline.
Result<RunStats> RunBurst(const std::string& fault_spec, bool quick) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "10");
  karamel.SetAttribute("cluster/cores", "3");
  karamel.SetAttribute("cluster/memory_mb", "4096");
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, karamel.Converge());

  std::vector<BurstEntry> burst = MakeBurst(quick);
  for (const BurstEntry& e : burst) {
    for (const auto& [path, size] : e.staged.inputs) {
      if (!d->dfs->Exists(path)) {
        HIWAY_RETURN_IF_ERROR(d->dfs->IngestFile(path, size));
      }
    }
  }

  WorkflowServiceOptions service_options;
  service_options.rm_scheduler = "fair";
  ServiceQueueOptions queue;
  queue.rm.name = "default";
  queue.max_concurrent_ams = 8;
  service_options.queues = {queue};
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<WorkflowService> service,
                         WorkflowService::Create(d.get(), service_options));

  FaultInjector injector(&d->engine, /*seed=*/20170321);
  if (!fault_spec.empty()) {
    service->InstallFaultHandlers(&injector);
    HIWAY_RETURN_IF_ERROR(injector.ArmSpec(fault_spec));
  }

  for (const BurstEntry& e : burst) {
    HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<WorkflowSource> source,
                           HiWayClient(d.get()).MakeSource(e.staged));
    SubmissionOptions sub;
    sub.source_factory = [dep = d.get(), staged = e.staged] {
      return HiWayClient(dep).MakeSource(staged);
    };
    HIWAY_RETURN_IF_ERROR(
        service->Submit(e.name, std::move(source), sub).status());
  }
  HIWAY_RETURN_IF_ERROR(service->RunToCompletion());

  RunStats stats;
  stats.total = static_cast<int>(burst.size());
  stats.faults = injector.counters();
  for (const SubmissionRecord& rec : service->Records()) {
    if (rec.state == SubmissionState::kSucceeded) ++stats.succeeded;
    stats.makespan_s = std::max(stats.makespan_s, rec.finished_at);
    stats.tasks_completed += rec.report.tasks_completed;
    stats.am_failures += rec.am_failures;
    stats.recovery_latency_s.insert(stats.recovery_latency_s.end(),
                                    rec.recovery_latency_s.begin(),
                                    rec.recovery_latency_s.end());
    if (rec.am_failures > 0) {
      stats.completed_at_failure += rec.completed_at_last_failure;
      stats.memoised += rec.report.tasks_memoised;
    }
  }
  return stats;
}

int Main(int argc, char** argv) {
  bool quick = bench::QuickMode(argc, argv);
  bool json = bench::JsonMode(argc, argv);

  auto baseline = RunBurst("", quick);
  if (!baseline.ok()) {
    std::fprintf(stderr, "baseline: %s\n",
                 baseline.status().ToString().c_str());
    return 1;
  }

  // Strike while the burst is mid-flight: two AM-node kills at 25% and
  // 55% of the measured baseline makespan.
  std::string spec =
      StrFormat("kill-am-node@%.1f,kill-am-node@%.1f",
                0.25 * baseline->makespan_s, 0.55 * baseline->makespan_s);
  auto faulted = RunBurst(spec, quick);
  if (!faulted.ok()) {
    std::fprintf(stderr, "faulted: %s\n", faulted.status().ToString().c_str());
    return 1;
  }

  int wasted = faulted->completed_at_failure - faulted->memoised;
  double wasted_ratio =
      faulted->completed_at_failure > 0
          ? static_cast<double>(wasted) /
                static_cast<double>(faulted->completed_at_failure)
          : 0.0;
  double overhead = baseline->makespan_s > 0.0
                        ? faulted->makespan_s / baseline->makespan_s
                        : 0.0;
  double p50 = Percentile(faulted->recovery_latency_s, 50.0);
  double p95 = Percentile(faulted->recovery_latency_s, 95.0);
  double max_latency = 0.0;
  for (double r : faulted->recovery_latency_s) {
    max_latency = std::max(max_latency, r);
  }

  if (json) {
    std::printf(
        "{\"baseline\": {\"makespan_s\": %.3f, \"tasks_completed\": %d, "
        "\"succeeded\": %d, \"total\": %d}, "
        "\"faulted\": {\"makespan_s\": %.3f, \"tasks_completed\": %d, "
        "\"succeeded\": %d, \"total\": %d, \"am_failures\": %d, "
        "\"node_kills\": %d, "
        "\"recovery_latency_s\": {\"p50\": %.3f, \"p95\": %.3f, "
        "\"max\": %.3f}, "
        "\"completed_at_failure\": %d, \"memoised\": %d, "
        "\"wasted_tasks\": %d, \"wasted_work_ratio\": %.4f, "
        "\"makespan_overhead\": %.4f}}\n",
        baseline->makespan_s, baseline->tasks_completed, baseline->succeeded,
        baseline->total, faulted->makespan_s, faulted->tasks_completed,
        faulted->succeeded, faulted->total, faulted->am_failures,
        faulted->faults.node_kills, p50, p95, max_latency,
        faulted->completed_at_failure, faulted->memoised, wasted, wasted_ratio,
        overhead);
    return faulted->succeeded == faulted->total ? 0 : 1;
  }

  bench::PrintHeader("AM failover: 8-workflow burst vs AM-node kills");
  std::printf("burst: 4x SNV + 4x k-means, 10 workers x 3 cores, fair RM "
              "scheduler%s\nfaults: %s\n\n",
              quick ? "  [quick]" : "", spec.c_str());
  std::printf("%-10s %12s %8s %6s %12s\n", "run", "makespan", "tasks", "ok",
              "am-failures");
  bench::PrintRule(54);
  std::printf("%-10s %12s %8d %3d/%d %12s\n", "baseline",
              HumanDuration(baseline->makespan_s).c_str(),
              baseline->tasks_completed, baseline->succeeded, baseline->total,
              "-");
  std::printf("%-10s %12s %8d %3d/%d %12d\n", "faulted",
              HumanDuration(faulted->makespan_s).c_str(),
              faulted->tasks_completed, faulted->succeeded, faulted->total,
              faulted->am_failures);
  std::printf("\nrecovery latency: p50=%s p95=%s max=%s (%zu failover(s))\n",
              HumanDuration(p50).c_str(), HumanDuration(p95).c_str(),
              HumanDuration(max_latency).c_str(),
              faulted->recovery_latency_s.size());
  std::printf("wasted work: %d of %d completed-at-failure task(s) "
              "re-executed (ratio %.3f, memoised %d)\n",
              wasted, faulted->completed_at_failure, wasted_ratio,
              faulted->memoised);
  std::printf("makespan overhead: %.2fx baseline\n", overhead);
  if (faulted->succeeded != faulted->total) {
    std::fprintf(stderr, "\nFAIL: %d/%d submissions survived the faults\n",
                 faulted->succeeded, faulted->total);
    return 1;
  }
  if (wasted_ratio >= 0.3) {
    std::fprintf(stderr,
                 "\nWARN: wasted-work ratio %.3f exceeds the 0.3 target\n",
                 wasted_ratio);
  }
  return 0;
}

}  // namespace
}  // namespace hiway

int main(int argc, char** argv) { return hiway::Main(argc, argv); }
