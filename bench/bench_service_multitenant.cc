// Multi-tenant service benchmark: a mixed burst of workflows — SNV
// calling, Montage, k-means, and TRAPLINE RNA-seq — submitted together
// through the WorkflowService gateway onto one deliberately scarce
// cluster, replayed under each RM scheduling strategy (fifo | capacity |
// fair). Reports burst makespan, mean and p95 container queue wait, and
// the time-averaged Jain fairness index over the tenants'
// demand-satisfaction ratios.
//
// Expected shape: FIFO serves container requests in arrival order, so
// whichever AMs flood the queue first monopolise the cluster while later
// tenants starve (low fairness). Capacity scheduling keeps each queue
// near its guaranteed share; fair scheduling (dominant-resource fairness,
// Ghodsi et al. NSDI'11) equalises the per-application dominant shares,
// driving the Jain index towards 1 at a modest makespan cost.

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
  std::string queue;
  StagedWorkflow staged;
};

/// Eight workflows, two of each kind, split across two tenant queues:
/// "genomics" (SNV + RNA-seq) and "analytics" (Montage + k-means).
std::vector<BurstEntry> MakeBurst(bool quick) {
  std::vector<BurstEntry> burst;
  for (int i = 0; i < 2; ++i) {
    SnvWorkloadOptions snv;
    snv.num_chunks = 4;
    snv.chunk_bytes = (quick ? 16LL : 64LL) << 20;
    snv.input_dir = StrFormat("/in/snv%d", i);
    snv.output_dir = StrFormat("/out/snv%d", i);
    GeneratedWorkload w = MakeSnvCallingWorkflow(snv);
    BurstEntry e;
    e.name = StrFormat("snv-%d", i);
    e.queue = "genomics";
    e.staged.language = "cuneiform";
    e.staged.document = w.document;
    e.staged.inputs = w.inputs;
    burst.push_back(std::move(e));
  }
  for (int i = 0; i < 2; ++i) {
    RnaSeqWorkloadOptions rnaseq;
    rnaseq.replicates_per_condition = 2;
    rnaseq.sample_bytes = (quick ? 16LL : 48LL) << 20;
    rnaseq.input_dir = StrFormat("/in/geo%d", i);
    GeneratedWorkload w = MakeTraplineWorkflow(rnaseq);
    BurstEntry e;
    e.name = StrFormat("rnaseq-%d", i);
    e.queue = "genomics";
    e.staged.language = "galaxy";
    e.staged.document = w.document;
    e.staged.inputs = w.inputs;
    for (const auto& [name, path] : TraplineInputBindings(rnaseq)) {
      e.staged.galaxy_inputs[name] = path;
    }
    burst.push_back(std::move(e));
  }
  for (int i = 0; i < 2; ++i) {
    MontageWorkloadOptions montage;
    montage.num_images = 6;
    montage.image_bytes = 4LL << 20;
    montage.input_dir = StrFormat("/in/2mass%d", i);
    GeneratedWorkload w = MakeMontageWorkflow(montage);
    BurstEntry e;
    e.name = StrFormat("montage-%d", i);
    e.queue = "analytics";
    e.staged.language = "dax";
    e.staged.document = w.document;
    e.staged.inputs = w.inputs;
    burst.push_back(std::move(e));
  }
  for (int i = 0; i < 2; ++i) {
    KmeansWorkloadOptions kmeans;
    kmeans.points_bytes = (quick ? 8LL : 32LL) << 20;
    kmeans.converge_after = 3;
    kmeans.input_path = StrFormat("/in/kmeans%d/points.csv", i);
    GeneratedWorkload w = MakeKmeansWorkflow(kmeans);
    BurstEntry e;
    e.name = StrFormat("kmeans-%d", i);
    e.queue = "analytics";
    e.staged.language = "cuneiform";
    e.staged.document = w.document;
    e.staged.inputs = w.inputs;
    burst.push_back(std::move(e));
  }
  return burst;
}

struct BurstResult {
  double makespan_s = 0.0;
  double mean_wait_s = 0.0;
  double p95_wait_s = 0.0;
  double fairness = 0.0;
  int succeeded = 0;
  int total = 0;
};

Result<BurstResult> RunBurst(const std::string& rm_scheduler, bool quick) {
  // Scarce on purpose: 8 AM containers + ~30 requested task containers
  // against 10 x 3 = 30 vcores forces sustained multi-tenant contention.
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
  service_options.rm_scheduler = rm_scheduler;
  ServiceQueueOptions genomics;
  genomics.rm.name = "genomics";
  genomics.rm.guaranteed_share = 0.5;
  genomics.max_concurrent_ams = 8;
  ServiceQueueOptions analytics;
  analytics.rm.name = "analytics";
  analytics.rm.guaranteed_share = 0.5;
  analytics.max_concurrent_ams = 8;
  service_options.queues = {genomics, analytics};
  HIWAY_ASSIGN_OR_RETURN(
      std::unique_ptr<WorkflowService> service,
      WorkflowService::Create(d.get(), service_options));

  HiWayClient client(d.get());
  for (const BurstEntry& e : burst) {
    HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<WorkflowSource> source,
                           client.MakeSource(e.staged));
    SubmissionOptions sub;
    sub.queue = e.queue;
    HIWAY_RETURN_IF_ERROR(
        service->Submit(e.name, std::move(source), sub).status());
  }
  HIWAY_RETURN_IF_ERROR(service->RunToCompletion());

  BurstResult result;
  result.total = static_cast<int>(burst.size());
  for (const SubmissionRecord& rec : service->Records()) {
    if (rec.state == SubmissionState::kSucceeded) ++result.succeeded;
    result.makespan_s = std::max(result.makespan_s, rec.finished_at);
  }
  std::vector<double> waits;
  for (const char* queue : {"genomics", "analytics"}) {
    const TenantStats* stats = d->rm->queue_stats(queue);
    if (stats != nullptr) {
      waits.insert(waits.end(), stats->wait_times_s.begin(),
                   stats->wait_times_s.end());
    }
  }
  result.mean_wait_s = bench::Mean(waits);
  result.p95_wait_s = Percentile(waits, 95.0);
  result.fairness = d->rm->TimeAveragedFairness();
  return result;
}

int Main(int argc, char** argv) {
  bool quick = bench::QuickMode(argc, argv);
  bench::PrintHeader(
      "Multi-tenant service: mixed 8-workflow burst under RM schedulers");
  std::printf("burst: 2x SNV + 2x RNA-seq (genomics), 2x Montage + "
              "2x k-means (analytics)\ncluster: 10 workers x 3 cores "
              "(scarce; sustained contention)%s\n\n",
              quick ? "  [quick]" : "");
  std::printf("%-10s %12s %14s %13s %10s %6s\n", "scheduler", "makespan",
              "mean-wait", "p95-wait", "jain", "ok");
  bench::PrintRule(70);
  for (const char* scheduler : {"fifo", "capacity", "fair"}) {
    auto result = RunBurst(scheduler, quick);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", scheduler,
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-10s %12s %14s %13s %10.3f %3d/%d\n", scheduler,
                HumanDuration(result->makespan_s).c_str(),
                HumanDuration(result->mean_wait_s).c_str(),
                HumanDuration(result->p95_wait_s).c_str(), result->fairness,
                result->succeeded, result->total);
  }
  std::printf(
      "\nJain index is time-averaged over windows where >= 2 tenants hold\n"
      "or demand resources and >= 1 is backlogged; 1.0 = every tenant's\n"
      "demand is satisfied at the same rate.\n");
  return 0;
}

}  // namespace
}  // namespace hiway

int main(int argc, char** argv) { return hiway::Main(argc, argv); }
