// Storage-footprint benchmark: intermediate-data GC and the footprint
// estimator against a capacity-limited DFS (docs/storage-model.md).
//
// Workload: chains of N stages (each stage consumes its predecessor's
// output and produces one equally-sized file), run as concurrent
// submissions through the WorkflowService, every instance under its own
// path prefix. Without GC a chain keeps all N outputs on disk; with GC
// only the input, the freshly-produced file, and its not-yet-consumed
// predecessor are ever live, so far more chains fit into the same
// capacity.
//
// Three gates:
//   1. scale: the largest burst where every workflow succeeds at a fixed
//      DFS capacity is >= 2x larger with GC on than off;
//   2. estimate accuracy: the static footprint estimate
//      (src/gc/footprint.h) is within 25% of the traced actual peak
//      (WorkflowReport::peak_footprint_bytes) for a chain and a diamond;
//   3. byte-identical: target files (size and content fingerprint) match
//      between a GC-on and a GC-off run of the same workflows.
//
// `--quick` trims the scale probe for CI; `--json` emits one JSON object
// for artifact collection. Exit code 1 when a gate fails.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/client.h"
#include "src/gc/footprint.h"
#include "src/infra/karamel.h"
#include "src/service/workflow_service.h"

namespace hiway {
namespace {

constexpr int kChainStages = 8;
constexpr int64_t kStageBytes = 4LL << 20;  // 4 MiB per produced file
constexpr int64_t kCapacityMb = 64;         // scale-gate DFS capacity

/// Linear chain under `prefix`: in -> mid0 -> ... -> out.
std::vector<TaskSpec> MakeChainTasks(const std::string& prefix) {
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < kChainStages; ++i) {
    TaskSpec t;
    t.id = i;
    t.signature = "chainstep";
    t.command = StrFormat("chainstep --stage %d", i);
    t.input_files = {i == 0 ? prefix + "/in"
                            : StrFormat("%s/mid%d", prefix.c_str(), i - 1)};
    OutputSpec out;
    out.param = "out";
    out.path = i == kChainStages - 1
                   ? prefix + "/out"
                   : StrFormat("%s/mid%d", prefix.c_str(), i);
    out.size_bytes = kStageBytes;
    t.outputs.push_back(std::move(out));
    tasks.push_back(std::move(t));
  }
  return tasks;
}

/// Diamond under `prefix`: in -> split -> {a, b} -> join (the smallest
/// graph where a file (split's output) has two consumers and fan-in
/// retirement matters).
std::vector<TaskSpec> MakeDiamondTasks(const std::string& prefix) {
  auto task = [&](TaskId id, std::vector<std::string> inputs,
                  const std::string& out_name) {
    TaskSpec t;
    t.id = id;
    t.signature = "chainstep";
    t.command = "chainstep --diamond " + out_name;
    t.input_files = std::move(inputs);
    OutputSpec out;
    out.param = "out";
    out.path = prefix + "/" + out_name;
    out.size_bytes = kStageBytes;
    t.outputs.push_back(std::move(out));
    return t;
  };
  return {task(0, {prefix + "/in"}, "split"),
          task(1, {prefix + "/split"}, "a"),
          task(2, {prefix + "/split"}, "b"),
          task(3, {prefix + "/a", prefix + "/b"}, "out")};
}

Result<std::unique_ptr<Deployment>> MakeDeployment(bool gc,
                                                   int64_t capacity_mb) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "8");
  // Replication 1 keeps raw == logical bytes, so the gate arithmetic in
  // the header comment reads off directly.
  karamel.SetAttribute("dfs/replication", "1");
  if (capacity_mb > 0) {
    karamel.SetAttribute("dfs/capacity_mb", StrFormat("%lld", (long long)capacity_mb));
  }
  if (gc) karamel.SetAttribute("hiway/gc", "on");
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, karamel.Converge());
  ToolProfile chainstep;
  chainstep.name = "chainstep";
  chainstep.cpu_seconds_per_mb = 0.05;
  chainstep.fixed_cpu_seconds = 0.5;
  chainstep.runtime_noise_sigma = 0.0;
  d->tools.Register(std::move(chainstep));
  return d;
}

/// Runs `k` concurrent chains at the scale-gate capacity; true when every
/// submission succeeded.
Result<bool> RunBurst(int k, bool gc) {
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                         MakeDeployment(gc, kCapacityMb));
  for (int i = 0; i < k; ++i) {
    HIWAY_RETURN_IF_ERROR(
        d->dfs->IngestFile(StrFormat("/wf%03d/in", i), kStageBytes));
  }
  WorkflowServiceOptions options;
  ServiceQueueOptions queue;
  queue.rm.name = "default";
  queue.max_concurrent_ams = k;
  queue.max_backlog = k + 1;
  options.queues.push_back(queue);
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<WorkflowService> service,
                         WorkflowService::Create(d.get(), options));
  for (int i = 0; i < k; ++i) {
    std::string prefix = StrFormat("/wf%03d", i);
    auto source = std::make_unique<StaticWorkflowSource>(
        "chain-" + prefix, MakeChainTasks(prefix),
        std::vector<std::string>{prefix + "/out"});
    HIWAY_RETURN_IF_ERROR(
        service->Submit(prefix, std::move(source), {}).status());
  }
  HIWAY_RETURN_IF_ERROR(service->RunToCompletion());
  for (const SubmissionRecord& rec : service->Records()) {
    if (rec.state != SubmissionState::kSucceeded) return false;
  }
  return true;
}

/// Largest burst (up to `limit`) where every chain succeeds.
Result<int> MaxScale(bool gc, int limit) {
  int best = 0;
  for (int k = 1; k <= limit; ++k) {
    HIWAY_ASSIGN_OR_RETURN(bool ok, RunBurst(k, gc));
    if (!ok) break;
    best = k;
  }
  return best;
}

struct SingleRun {
  int64_t estimate_bytes = 0;      // static estimate, logical
  int64_t actual_peak_bytes = 0;   // traced by the collector, logical
  int64_t gc_bytes_collected = 0;
  std::vector<std::pair<int64_t, uint64_t>> targets;  // (size, content id)
};

/// One workflow on an uncapped deployment; with GC on the report carries
/// the traced peak, with GC off only the target fingerprints matter.
Result<SingleRun> RunSingle(const std::vector<TaskSpec>& tasks,
                            const std::vector<std::string>& targets,
                            const std::string& input, bool gc) {
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                         MakeDeployment(gc, /*capacity_mb=*/0));
  HIWAY_RETURN_IF_ERROR(d->dfs->IngestFile(input, kStageBytes));
  SingleRun run;
  FootprintEstimate est = EstimateFootprint(tasks, targets, d->dfs.get());
  run.estimate_bytes = est.peak_bytes;
  StaticWorkflowSource source("bench", tasks, targets);
  HiWayClient client(d.get());
  HIWAY_ASSIGN_OR_RETURN(WorkflowReport report,
                         client.RunSource(&source, "data-aware", {}));
  HIWAY_RETURN_IF_ERROR(report.status);
  run.actual_peak_bytes = report.peak_footprint_bytes;
  run.gc_bytes_collected = report.gc_bytes_collected;
  for (const std::string& target : targets) {
    HIWAY_ASSIGN_OR_RETURN(DfsFileInfo info, d->dfs->Stat(target));
    run.targets.emplace_back(info.size_bytes, info.content_id);
  }
  return run;
}

int Main(int argc, char** argv) {
  bool quick = bench::QuickMode(argc, argv);
  bool json = bench::JsonMode(argc, argv);
  int limit = quick ? 8 : 16;

  auto scale_off = MaxScale(/*gc=*/false, limit);
  auto scale_on = MaxScale(/*gc=*/true, limit);
  if (!scale_off.ok() || !scale_on.ok()) {
    std::fprintf(stderr, "scale probe failed: %s\n",
                 (scale_off.ok() ? scale_on : scale_off)
                     .status()
                     .ToString()
                     .c_str());
    return 1;
  }
  double scale_ratio = *scale_off > 0
                           ? static_cast<double>(*scale_on) /
                                 static_cast<double>(*scale_off)
                           : 0.0;
  bool scale_ok = *scale_off > 0 && scale_ratio >= 2.0;

  struct Shape {
    const char* name;
    std::vector<TaskSpec> tasks;
    std::vector<std::string> targets;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"chain", MakeChainTasks("/single"), {"/single/out"}});
  shapes.push_back(
      {"diamond", MakeDiamondTasks("/single"), {"/single/out"}});

  bool estimate_ok = true;
  bool identical_ok = true;
  struct ShapeResult {
    std::string name;
    int64_t estimate = 0;
    int64_t actual = 0;
    double error = 0.0;
  };
  std::vector<ShapeResult> shape_results;
  for (const Shape& shape : shapes) {
    auto on = RunSingle(shape.tasks, shape.targets, "/single/in", true);
    auto off = RunSingle(shape.tasks, shape.targets, "/single/in", false);
    if (!on.ok() || !off.ok()) {
      std::fprintf(stderr, "%s run failed: %s\n", shape.name,
                   (on.ok() ? off : on).status().ToString().c_str());
      return 1;
    }
    ShapeResult r;
    r.name = shape.name;
    r.estimate = on->estimate_bytes;
    r.actual = on->actual_peak_bytes;
    r.error = r.actual > 0
                  ? std::fabs(static_cast<double>(r.estimate - r.actual)) /
                        static_cast<double>(r.actual)
                  : 1.0;
    if (r.error > 0.25) estimate_ok = false;
    if (on->targets != off->targets) identical_ok = false;
    shape_results.push_back(std::move(r));
  }

  bool ok = scale_ok && estimate_ok && identical_ok;
  if (json) {
    std::printf("{\"bench\":\"footprint\",\"quick\":%s,"
                "\"capacity_mb\":%lld,\"chain_stages\":%d,"
                "\"stage_bytes\":%lld,"
                "\"max_scale_gc_off\":%d,\"max_scale_gc_on\":%d,"
                "\"scale_ratio\":%.2f,\"shapes\":[",
                quick ? "true" : "false",
                static_cast<long long>(kCapacityMb), kChainStages,
                static_cast<long long>(kStageBytes), *scale_off, *scale_on,
                scale_ratio);
    for (size_t i = 0; i < shape_results.size(); ++i) {
      const ShapeResult& r = shape_results[i];
      std::printf("%s{\"shape\":\"%s\",\"estimate_bytes\":%lld,"
                  "\"actual_peak_bytes\":%lld,\"error\":%.4f}",
                  i == 0 ? "" : ",", r.name.c_str(),
                  static_cast<long long>(r.estimate),
                  static_cast<long long>(r.actual), r.error);
    }
    std::printf("],\"gates\":{\"scale_2x\":%s,\"estimate_25pct\":%s,"
                "\"byte_identical\":%s}}\n",
                scale_ok ? "true" : "false", estimate_ok ? "true" : "false",
                identical_ok ? "true" : "false");
  } else {
    bench::PrintHeader("Intermediate-data GC: scale and estimate accuracy");
    std::printf("workload: %d-stage chains, %lld MiB/stage, %lld MiB DFS "
                "capacity, replication 1%s\n\n",
                kChainStages, static_cast<long long>(kStageBytes >> 20),
                static_cast<long long>(kCapacityMb),
                quick ? "  [quick]" : "");
    std::printf("max concurrent chains, all succeeding: gc-off=%d "
                "gc-on=%d (%.1fx)\n",
                *scale_off, *scale_on, scale_ratio);
    for (const ShapeResult& r : shape_results) {
      std::printf("%-8s estimate=%lld actual-peak=%lld error=%.1f%%\n",
                  r.name.c_str(), static_cast<long long>(r.estimate),
                  static_cast<long long>(r.actual), r.error * 100.0);
    }
    std::printf("\ngates:\n");
    std::printf("  gc-on scale >= 2x gc-off: %s\n",
                scale_ok ? "PASS" : "FAIL");
    std::printf("  estimate within 25%% of traced peak: %s\n",
                estimate_ok ? "PASS" : "FAIL");
    std::printf("  targets byte-identical gc on/off: %s\n",
                identical_ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace hiway

int main(int argc, char** argv) { return hiway::Main(argc, argv); }
