// Elastic-membership benchmark (docs/elastic-cluster.md): three legs
// over the same 4-workflow burst (2x SNV + 2x iterative k-means, a mix
// of wide fan-out and narrow sequential tails).
//
//   drain gate    — two node losses at the same virtual times, once as
//                   warned spot revocations (120 s notice, graceful
//                   drain) and once as unwarned kills. Metric: wasted
//                   container-seconds (drained_work_s + lost_work_s).
//                   GATE: warned waste <= 1/2 of unwarned waste.
//   frontier      — autoscaler policies starting from 4 workers vs a
//                   fixed 12-worker fleet, on the node-hours (cost) vs
//                   makespan (speed) plane. GATE: at least one policy
//                   dominates the fixed fleet — strictly fewer
//                   node-hours at a makespan within 10%.
//   storm         — a reactive fleet riding out four warned revocations
//                   while the autoscaler back-fills capacity.
//                   GATE: the /out namespace is byte-identical (same
//                   paths, same sizes) to the calm fixed-fleet run.
//
// `--json` emits one JSON object for CI artifact collection; the exit
// code is non-zero when any submission fails or any gate is missed.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/client.h"
#include "src/elastic/elastic_cluster.h"
#include "src/service/workflow_service.h"
#include "src/sim/fault_injector.h"
#include "src/workloads/workloads.h"

namespace hiway {
namespace {

struct BurstEntry {
  std::string name;
  StagedWorkflow staged;
};

std::vector<BurstEntry> MakeBurst(bool quick) {
  std::vector<BurstEntry> burst;
  for (int i = 0; i < 2; ++i) {
    SnvWorkloadOptions snv;
    snv.num_chunks = 8;
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
  for (int i = 0; i < 2; ++i) {
    KmeansWorkloadOptions kmeans;
    // The iterative tail is the frontier's idle phase: long enough that
    // scale-in policies can observe sustained empty workers and retire
    // them while the k-means AMs grind on alone.
    kmeans.points_bytes = (quick ? 12LL : 32LL) << 20;
    kmeans.converge_after = 4;
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

struct FleetConfig {
  std::string label;
  std::string autoscaler = "off";
  int workers = 12;
  int min_nodes = 4;
  int max_nodes = 12;
  std::string faults;
};

struct RunResult {
  double makespan_s = 0.0;
  double node_hours = 0.0;
  int succeeded = 0;
  int total = 0;
  int tasks_completed = 0;
  double drained_work_s = 0.0;
  double lost_work_s = 0.0;
  ElasticStats elastic;
  FaultCounters faults;
  /// (path, size) of every /out file — the byte-identity fingerprint.
  std::map<std::string, int64_t> outputs;
};

Result<RunResult> RunBurst(const FleetConfig& config, bool quick) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", StrFormat("%d", config.workers));
  karamel.SetAttribute("cluster/cores", "3");
  karamel.SetAttribute("cluster/memory_mb", "4096");
  karamel.SetAttribute("elastic/autoscaler", config.autoscaler);
  karamel.SetAttribute("elastic/min_nodes",
                       StrFormat("%d", config.min_nodes));
  karamel.SetAttribute("elastic/max_nodes",
                       StrFormat("%d", config.max_nodes));
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
  if (!config.faults.empty()) {
    service->InstallFaultHandlers(&injector);
    HIWAY_RETURN_IF_ERROR(injector.ArmSpec(config.faults));
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

  RunResult result;
  result.total = static_cast<int>(burst.size());
  result.faults = injector.counters();
  result.elastic = d->elastic->stats();  // Accrues up to now
  result.node_hours = result.elastic.node_seconds / 3600.0;
  result.drained_work_s = d->rm->counters().drained_work_s;
  result.lost_work_s = d->rm->counters().lost_work_s;
  for (const SubmissionRecord& rec : service->Records()) {
    if (rec.state == SubmissionState::kSucceeded) ++result.succeeded;
    result.makespan_s = std::max(result.makespan_s, rec.finished_at);
    result.tasks_completed += rec.report.tasks_completed;
  }
  for (const std::string& path : d->dfs->ListFiles()) {
    if (path.rfind("/out", 0) != 0) continue;
    auto info = d->dfs->Stat(path);
    if (info.ok()) result.outputs[path] = info->size_bytes;
  }
  return result;
}

int Main(int argc, char** argv) {
  bool quick = bench::QuickMode(argc, argv);
  bool json = bench::JsonMode(argc, argv);

  // ---- Calm fixed-fleet baseline (also the storm's reference). ----
  FleetConfig fixed;
  fixed.label = "fixed-12";
  auto baseline = RunBurst(fixed, quick);
  if (!baseline.ok()) {
    std::fprintf(stderr, "baseline: %s\n",
                 baseline.status().ToString().c_str());
    return 1;
  }
  double m = baseline->makespan_s;

  // ---- Leg 1: warned drain vs unwarned kill, same nodes, same times. --
  // A tighter 6-worker fleet keeps every node busy mid-run, so the
  // struck nodes actually hold in-flight work (AMs land on the low ids;
  // the victims are pure task nodes).
  FleetConfig tight;
  tight.label = "fixed-6";
  tight.workers = 6;
  tight.min_nodes = 6;
  tight.max_nodes = 6;
  auto tight_run = RunBurst(tight, quick);
  if (!tight_run.ok()) {
    std::fprintf(stderr, "fixed-6: %s\n",
                 tight_run.status().ToString().c_str());
    return 1;
  }
  double m6 = tight_run->makespan_s;
  FleetConfig warned = tight;
  warned.label = "warned";
  warned.faults = StrFormat(
      "spot-revoke@%.1f:node=5:warn=120, spot-revoke@%.1f:node=4:warn=120",
      0.30 * m6, 0.55 * m6);
  FleetConfig unwarned = tight;
  unwarned.label = "unwarned";
  unwarned.faults = StrFormat("kill-node@%.1f:node=5, kill-node@%.1f:node=4",
                              0.30 * m6, 0.55 * m6);
  auto warned_run = RunBurst(warned, quick);
  auto unwarned_run = RunBurst(unwarned, quick);
  if (!warned_run.ok() || !unwarned_run.ok()) {
    std::fprintf(stderr, "drain legs failed: %s / %s\n",
                 warned_run.status().ToString().c_str(),
                 unwarned_run.status().ToString().c_str());
    return 1;
  }
  double warned_waste =
      warned_run->drained_work_s + warned_run->lost_work_s;
  double unwarned_waste = unwarned_run->lost_work_s;
  bool drain_gate =
      unwarned_waste <= 0.0 || warned_waste <= 0.5 * unwarned_waste;

  // ---- Leg 2: autoscaler frontier vs the fixed fleet. ----
  std::vector<FleetConfig> policies;
  // Two families: scale-out policies that start small and chase the
  // burst, and scale-in policies that start at the fixed fleet's size
  // and retire workers through the k-means tail.
  for (const char* name : {"reactive", "aggressive", "conservative"}) {
    FleetConfig c;
    c.label = name;
    c.autoscaler = name;
    c.workers = 6;
    c.min_nodes = 4;
    c.max_nodes = 12;
    policies.push_back(std::move(c));
  }
  for (const char* name : {"reactive", "aggressive"}) {
    FleetConfig c;
    c.label = StrFormat("%s-12", name);
    c.autoscaler = name;
    c.workers = 12;
    c.min_nodes = 6;
    c.max_nodes = 12;
    policies.push_back(std::move(c));
  }
  std::vector<std::pair<FleetConfig, RunResult>> frontier;
  for (const FleetConfig& c : policies) {
    auto r = RunBurst(c, quick);
    if (!r.ok()) {
      std::fprintf(stderr, "%s: %s\n", c.label.c_str(),
                   r.status().ToString().c_str());
      return 1;
    }
    frontier.emplace_back(c, *r);
  }
  std::string dominator;
  for (const auto& [c, r] : frontier) {
    if (r.succeeded == r.total && r.node_hours < baseline->node_hours &&
        r.makespan_s <= 1.10 * baseline->makespan_s) {
      dominator = c.label;
      break;
    }
  }
  bool frontier_gate = !dominator.empty();

  // ---- Leg 3: revocation storm with autoscaled back-fill. ----
  FleetConfig storm;
  storm.label = "storm";
  storm.autoscaler = "reactive";
  storm.workers = 12;
  storm.min_nodes = 6;
  storm.max_nodes = 14;
  storm.faults = StrFormat(
      "spot-revoke@%.1f:warn=60, spot-revoke@%.1f:warn=60, "
      "spot-revoke@%.1f:warn=60, spot-revoke@%.1f:warn=60",
      0.20 * m, 0.35 * m, 0.50 * m, 0.65 * m);
  auto storm_run = RunBurst(storm, quick);
  if (!storm_run.ok()) {
    std::fprintf(stderr, "storm: %s\n", storm_run.status().ToString().c_str());
    return 1;
  }
  bool storm_gate = storm_run->succeeded == storm_run->total &&
                    storm_run->outputs == baseline->outputs;

  bool all_ok = baseline->succeeded == baseline->total &&
                warned_run->succeeded == warned_run->total &&
                unwarned_run->succeeded == unwarned_run->total &&
                drain_gate && frontier_gate && storm_gate;

  if (json) {
    std::printf(
        "{\"baseline\": {\"makespan_s\": %.3f, \"node_hours\": %.4f, "
        "\"succeeded\": %d, \"total\": %d}, "
        "\"drain\": {\"warned_waste_s\": %.3f, \"unwarned_waste_s\": %.3f, "
        "\"warned_makespan_s\": %.3f, \"unwarned_makespan_s\": %.3f, "
        "\"gate\": %s}, "
        "\"frontier\": {",
        baseline->makespan_s, baseline->node_hours, baseline->succeeded,
        baseline->total, warned_waste, unwarned_waste,
        warned_run->makespan_s, unwarned_run->makespan_s,
        drain_gate ? "true" : "false");
    for (size_t i = 0; i < frontier.size(); ++i) {
      const auto& [c, r] = frontier[i];
      std::printf(
          "%s\"%s\": {\"makespan_s\": %.3f, \"node_hours\": %.4f, "
          "\"nodes_added\": %d, \"nodes_decommissioned\": %d}",
          i == 0 ? "" : ", ", c.label.c_str(), r.makespan_s, r.node_hours,
          r.elastic.nodes_added, r.elastic.nodes_decommissioned);
    }
    std::printf(
        ", \"dominator\": \"%s\", \"gate\": %s}, "
        "\"storm\": {\"makespan_s\": %.3f, \"node_hours\": %.4f, "
        "\"revocations\": %d, \"nodes_added\": %d, "
        "\"outputs_identical\": %s, \"gate\": %s}}\n",
        dominator.c_str(), frontier_gate ? "true" : "false",
        storm_run->makespan_s, storm_run->node_hours,
        storm_run->elastic.nodes_revoked, storm_run->elastic.nodes_added,
        storm_run->outputs == baseline->outputs ? "true" : "false",
        storm_gate ? "true" : "false");
    return all_ok ? 0 : 1;
  }

  bench::PrintHeader("elastic membership: drain, frontier, storm");
  std::printf("burst: 2x SNV + 2x k-means%s; baseline fixed fleet of 12\n\n",
              quick ? "  [quick]" : "");

  std::printf("[drain] 6-worker fleet, node losses at t=%.0fs and t=%.0fs\n",
              0.30 * m6, 0.55 * m6);
  std::printf("  %-10s wasted=%8.1fs makespan=%s\n", "warned", warned_waste,
              HumanDuration(warned_run->makespan_s).c_str());
  std::printf("  %-10s wasted=%8.1fs makespan=%s\n", "unwarned",
              unwarned_waste,
              HumanDuration(unwarned_run->makespan_s).c_str());
  std::printf("  gate (warned <= unwarned/2): %s\n\n",
              drain_gate ? "PASS" : "FAIL");

  std::printf("[frontier] policies from 6 workers (max 12) vs fixed 12\n");
  std::printf("  %-14s %12s %12s %8s %8s\n", "fleet", "makespan",
              "node-hours", "joined", "retired");
  bench::PrintRule(60);
  std::printf("  %-14s %12s %12.4f %8s %8s\n", "fixed-12",
              HumanDuration(baseline->makespan_s).c_str(),
              baseline->node_hours, "-", "-");
  for (const auto& [c, r] : frontier) {
    std::printf("  %-14s %12s %12.4f %8d %8d\n", c.label.c_str(),
                HumanDuration(r.makespan_s).c_str(), r.node_hours,
                r.elastic.nodes_added, r.elastic.nodes_decommissioned);
  }
  std::printf("  gate (some policy dominates): %s%s%s\n\n",
              frontier_gate ? "PASS (" : "FAIL", dominator.c_str(),
              frontier_gate ? ")" : "");

  std::printf("[storm] 4 warned revocations, reactive back-fill\n");
  std::printf("  makespan=%s node-hours=%.4f revoked=%d joined=%d\n",
              HumanDuration(storm_run->makespan_s).c_str(),
              storm_run->node_hours, storm_run->elastic.nodes_revoked,
              storm_run->elastic.nodes_added);
  std::printf("  gate (outputs byte-identical to calm run): %s\n",
              storm_gate ? "PASS" : "FAIL");

  if (!all_ok) {
    std::fprintf(stderr, "\nFAIL: a gate was missed or a submission died\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hiway

int main(int argc, char** argv) { return hiway::Main(argc, argv); }
