// Preemption benchmark: guarantee-restoration latency with container
// preemption on vs. off (docs/scheduling-model.md).
//
// An 8-workflow mixed burst on a capacity-scheduled RM with two queues:
// four batch SNV pipelines (low priority, queue 'batch', guarantee 0.25)
// saturate the cluster at t=0; four production workflows (two SNV, two
// k-means; high priority, queue 'prod', guarantee 0.6) arrive at 25% of
// the measured batch-phase makespan. The interesting numbers:
//
//   restoration latency — how long 'prod' stays starved (backlogged
//                         below its guarantee) per episode; p50/p95/max
//                         over all episodes. Preemption must beat the
//                         wait-for-voluntary-release baseline at p95.
//   wasted-work ratio   — container-seconds killed by preemption over
//                         total task container-seconds (< 0.3 target;
//                         victim selection prefers young containers).
//   makespan overhead   — preemption-on burst makespan / preemption-off
//                         (the price batch pays for prod's guarantee).
//
// Both comparison runs use the identical submission schedule and seed;
// only the preemption switch differs. `--json` emits a single JSON
// object for CI artifact collection; `--quick` shrinks the inputs.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/client.h"
#include "src/core/metrics.h"
#include "src/service/workflow_service.h"
#include "src/workloads/workloads.h"

namespace hiway {
namespace {

struct BurstEntry {
  std::string name;
  StagedWorkflow staged;
};

/// Four long-running SNV pipelines: the batch load that soaks up every
/// core while the production queue is idle.
std::vector<BurstEntry> MakeBatchBurst(bool quick) {
  std::vector<BurstEntry> burst;
  for (int i = 0; i < 4; ++i) {
    SnvWorkloadOptions snv;
    snv.num_chunks = 8;
    snv.chunk_bytes = (quick ? 16LL : 48LL) << 20;
    snv.input_dir = StrFormat("/in/batch%d", i);
    snv.output_dir = StrFormat("/out/batch%d", i);
    GeneratedWorkload w = MakeSnvCallingWorkflow(snv);
    BurstEntry e;
    e.name = StrFormat("batch-snv-%d", i);
    e.staged.language = "cuneiform";
    e.staged.document = w.document;
    e.staged.inputs = w.inputs;
    burst.push_back(std::move(e));
  }
  return burst;
}

/// The production arrivals whose guarantee the RM must restore: two SNV
/// pipelines and two k-means runs (sustained parallel demand above the
/// prod queue's guaranteed share).
std::vector<BurstEntry> MakeProdBurst(bool quick) {
  std::vector<BurstEntry> burst;
  for (int i = 0; i < 2; ++i) {
    SnvWorkloadOptions snv;
    snv.num_chunks = 8;
    snv.chunk_bytes = (quick ? 16LL : 48LL) << 20;
    snv.input_dir = StrFormat("/in/prod%d", i);
    snv.output_dir = StrFormat("/out/prod%d", i);
    GeneratedWorkload w = MakeSnvCallingWorkflow(snv);
    BurstEntry e;
    e.name = StrFormat("prod-snv-%d", i);
    e.staged.language = "cuneiform";
    e.staged.document = w.document;
    e.staged.inputs = w.inputs;
    burst.push_back(std::move(e));
  }
  for (int i = 0; i < 2; ++i) {
    KmeansWorkloadOptions kmeans;
    kmeans.points_bytes = (quick ? 8LL : 24LL) << 20;
    kmeans.converge_after = 3;
    kmeans.input_path = StrFormat("/in/prodkm%d/points.csv", i);
    GeneratedWorkload w = MakeKmeansWorkflow(kmeans);
    BurstEntry e;
    e.name = StrFormat("prod-kmeans-%d", i);
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
  int tasks_preempted = 0;
  int64_t preempted_containers = 0;
  double wasted_work_ratio = 0.0;
  double time_under_guarantee_s = 0.0;
  std::vector<double> restoration_s;  // prod queue, per episode
};

/// One full burst run. `prod_at < 0` runs the batch phase alone (to
/// measure the makespan the prod arrival time derives from).
Result<RunStats> RunBurst(bool preemption, double prod_at, bool quick) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "10");
  karamel.SetAttribute("cluster/cores", "3");
  karamel.SetAttribute("cluster/memory_mb", "4096");
  karamel.SetAttribute("yarn/scheduler", "capacity");
  karamel.SetAttribute("yarn/preemption", preemption ? "true" : "false");
  karamel.SetAttribute("yarn/preemption_grace_s", "2");
  karamel.SetAttribute("yarn/max_preempt_per_round", "4");
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, karamel.Converge());

  std::vector<BurstEntry> batch = MakeBatchBurst(quick);
  std::vector<BurstEntry> prod =
      prod_at < 0.0 ? std::vector<BurstEntry>{} : MakeProdBurst(quick);
  for (const std::vector<BurstEntry>* burst : {&batch, &prod}) {
    for (const BurstEntry& e : *burst) {
      for (const auto& [path, size] : e.staged.inputs) {
        if (!d->dfs->Exists(path)) {
          HIWAY_RETURN_IF_ERROR(d->dfs->IngestFile(path, size));
        }
      }
    }
  }

  WorkflowServiceOptions service_options;
  service_options.rm_scheduler = "capacity";
  ServiceQueueOptions batch_queue;
  // max_share < 1.0 keeps headroom for the prod AM containers even while
  // batch is saturating the task capacity.
  batch_queue.rm = RmQueueConfig{"batch", 0.25, 0.85, 1.0};
  batch_queue.max_concurrent_ams = 4;
  ServiceQueueOptions prod_queue;
  prod_queue.rm = RmQueueConfig{"prod", 0.6, 1.0, 1.0};
  prod_queue.max_concurrent_ams = 4;
  service_options.queues = {batch_queue, prod_queue};
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<WorkflowService> service,
                         WorkflowService::Create(d.get(), service_options));

  auto submit = [&](const BurstEntry& e, const std::string& queue,
                    int priority) -> Status {
    HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<WorkflowSource> source,
                           HiWayClient(d.get()).MakeSource(e.staged));
    SubmissionOptions sub;
    sub.queue = queue;
    sub.hiway.container_priority = priority;
    sub.source_factory = [dep = d.get(), staged = e.staged] {
      return HiWayClient(dep).MakeSource(staged);
    };
    return service->Submit(e.name, std::move(source), sub).status();
  };
  for (const BurstEntry& e : batch) {
    HIWAY_RETURN_IF_ERROR(submit(e, "batch", /*priority=*/0));
  }
  Status prod_status;
  if (!prod.empty()) {
    d->engine.ScheduleAt(prod_at, [&] {
      for (const BurstEntry& e : prod) {
        Status st = submit(e, "prod", /*priority=*/10);
        if (!st.ok() && prod_status.ok()) prod_status = st;
      }
    });
  }
  HIWAY_RETURN_IF_ERROR(service->RunToCompletion());
  HIWAY_RETURN_IF_ERROR(prod_status);

  RunStats stats;
  stats.total = static_cast<int>(batch.size() + prod.size());
  for (const SubmissionRecord& rec : service->Records()) {
    if (rec.state == SubmissionState::kSucceeded) ++stats.succeeded;
    stats.makespan_s = std::max(stats.makespan_s, rec.finished_at);
    stats.tasks_completed += rec.report.tasks_completed;
    stats.tasks_preempted += rec.report.tasks_preempted;
  }
  const RmCounters& counters = d->rm->counters();
  stats.preempted_containers = counters.preempted_containers;
  if (counters.container_work_s > 0.0) {
    stats.wasted_work_ratio =
        counters.preempted_work_s / counters.container_work_s;
  }
  if (const TenantStats* qs = d->rm->queue_stats("prod")) {
    stats.restoration_s = qs->restoration_latency_s;
    stats.time_under_guarantee_s = qs->time_under_guarantee_s;
  }
  return stats;
}

void PrintRunJson(const char* key, const RunStats& s) {
  std::printf(
      "\"%s\": {\"makespan_s\": %.3f, \"succeeded\": %d, \"total\": %d, "
      "\"tasks_completed\": %d, \"preempted_containers\": %lld, "
      "\"tasks_preempted\": %d, \"wasted_work_ratio\": %.4f, "
      "\"time_under_guarantee_s\": %.3f, \"restoration_s\": "
      "{\"episodes\": %zu, \"p50\": %.3f, \"p95\": %.3f, \"max\": %.3f}}",
      key, s.makespan_s, s.succeeded, s.total, s.tasks_completed,
      static_cast<long long>(s.preempted_containers), s.tasks_preempted,
      s.wasted_work_ratio, s.time_under_guarantee_s, s.restoration_s.size(),
      Percentile(s.restoration_s, 50.0), Percentile(s.restoration_s, 95.0),
      Percentile(s.restoration_s, 100.0));
}

void PrintRunRow(const char* name, const RunStats& s) {
  std::printf("%-12s %10s %4d/%d %9zu %9s %9s %10lld %7.3f\n", name,
              HumanDuration(s.makespan_s).c_str(), s.succeeded, s.total,
              s.restoration_s.size(),
              HumanDuration(Percentile(s.restoration_s, 50.0)).c_str(),
              HumanDuration(Percentile(s.restoration_s, 95.0)).c_str(),
              static_cast<long long>(s.preempted_containers),
              s.wasted_work_ratio);
}

int Main(int argc, char** argv) {
  bool quick = bench::QuickMode(argc, argv);
  bool json = bench::JsonMode(argc, argv);

  // Phase 1: batch alone, to size the arrival point of the prod burst.
  auto scout = RunBurst(/*preemption=*/false, /*prod_at=*/-1.0, quick);
  if (!scout.ok()) {
    std::fprintf(stderr, "batch scout: %s\n",
                 scout.status().ToString().c_str());
    return 1;
  }
  double prod_at = 0.25 * scout->makespan_s;

  // Phase 2: the identical mixed burst, preemption off then on.
  auto off = RunBurst(/*preemption=*/false, prod_at, quick);
  auto on = RunBurst(/*preemption=*/true, prod_at, quick);
  if (!off.ok() || !on.ok()) {
    std::fprintf(stderr, "burst: %s\n",
                 (!off.ok() ? off : on).status().ToString().c_str());
    return 1;
  }

  double p95_off = Percentile(off->restoration_s, 95.0);
  double p95_on = Percentile(on->restoration_s, 95.0);
  double overhead =
      off->makespan_s > 0.0 ? on->makespan_s / off->makespan_s : 0.0;
  bool all_ok = off->succeeded == off->total && on->succeeded == on->total;
  bool pass = all_ok && p95_on < p95_off && on->wasted_work_ratio < 0.3;

  if (json) {
    std::printf("{\"batch_makespan_s\": %.3f, \"prod_submitted_at_s\": %.3f, ",
                scout->makespan_s, prod_at);
    PrintRunJson("off", *off);
    std::printf(", ");
    PrintRunJson("on", *on);
    std::printf(", \"p95_improvement\": %.4f, \"makespan_overhead\": %.4f, "
                "\"pass\": %s}\n",
                p95_off > 0.0 ? 1.0 - p95_on / p95_off : 0.0, overhead,
                pass ? "true" : "false");
    return pass ? 0 : 1;
  }

  bench::PrintHeader("Preemption: guarantee-restoration latency, on vs off");
  std::printf("burst: 4x batch SNV at t=0 + (2x SNV, 2x k-means) prod at "
              "t=%s; 10 workers x 3 cores, capacity RM%s\n"
              "queues: batch guarantee=0.25 max=0.85 prio=0 | prod "
              "guarantee=0.60 max=1.00 prio=10; grace=2s, 4 kills/round\n\n",
              HumanDuration(prod_at).c_str(), quick ? "  [quick]" : "");
  std::printf("%-12s %10s %6s %9s %9s %9s %10s %7s\n", "run", "makespan",
              "ok", "episodes", "p50-rest", "p95-rest", "preempted",
              "wasted");
  bench::PrintRule(80);
  PrintRunRow("preempt-off", *off);
  PrintRunRow("preempt-on", *on);
  std::printf("\nprod p95 restoration: %s -> %s (%.1f%% better), makespan "
              "overhead %.2fx\n",
              HumanDuration(p95_off).c_str(), HumanDuration(p95_on).c_str(),
              p95_off > 0.0 ? 100.0 * (1.0 - p95_on / p95_off) : 0.0,
              overhead);
  if (!all_ok) {
    std::fprintf(stderr, "\nFAIL: not every submission succeeded\n");
    return 1;
  }
  if (p95_on >= p95_off) {
    std::fprintf(stderr, "\nFAIL: preemption did not improve p95 "
                         "restoration latency (%.3fs >= %.3fs)\n",
                 p95_on, p95_off);
    return 1;
  }
  if (on->wasted_work_ratio >= 0.3) {
    std::fprintf(stderr, "\nFAIL: wasted-work ratio %.3f exceeds 0.3\n",
                 on->wasted_work_ratio);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hiway

int main(int argc, char** argv) { return hiway::Main(argc, argv); }
