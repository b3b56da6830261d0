// Cache-reuse benchmark: repeated SNV submission waves against the
// cluster-wide result cache and per-node staging cache
// (docs/data-cache.md).
//
// The workload is the paper's daily re-run pattern: the same SNV-calling
// pipeline is submitted over and over on a slot-limited cluster, with at
// most one input chunk re-ingested (content changed, path and size kept)
// between waves. Wave 0 is the cold run; wave 1 is a byte-identical
// repeat; later waves each mutate one chunk, so exactly that chunk's
// four-task chain must recompute while every untouched chain is served
// from the cache. The interesting numbers and gates:
//
//   repeat speedup    — cold makespan / identical-repeat makespan. The
//                       repeat resolves every task from the cache without
//                       containers; must be >= 5x (it is usually far
//                       higher), with byte-identical DFS contents.
//   mutated waves     — per-wave makespan and hit counts. Each wave must
//                       beat the cold run and cache exactly
//                       total - chain_length tasks.
//   twin-tenant audit — the same document submitted by a second tenant
//                       gets ZERO hits (tenant_denied grows instead);
//                       the cache never leaks one tenant's bytes.
//   eviction sweep    — fresh deployments with descending
//                       hiway/cache_max_entries budgets. Warm makespan
//                       must degrade monotonically toward — and never
//                       meaningfully past — the cold makespan.
//
// All waves in a phase share one deployment (and therefore one seed
// schedule), so makespans are comparable. `--json` emits a single JSON
// object for CI artifact collection; `--quick` shrinks the inputs.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/cache/result_cache.h"
#include "src/cache/staging_cache.h"
#include "src/common/strings.h"
#include "src/infra/karamel.h"
#include "src/service/workflow_service.h"

namespace hiway {
namespace {

struct BenchConfig {
  int chunks = 30;
  int64_t chunk_mb = 32;
  int mutated_waves = 3;
  /// align -> sort -> call -> annotate.
  int chain_length = 4;
  int total_tasks() const { return chunks * chain_length; }
};

BenchConfig MakeConfig(bool quick) {
  BenchConfig c;
  if (quick) {
    c.chunks = 18;
    c.chunk_mb = 16;
    c.mutated_waves = 2;
  }
  return c;
}

/// Slot-limited cluster (3 workers x 2 cores): the cold run queues ~5
/// chains per slot, so cached waves have real contention to beat.
Result<std::unique_ptr<Deployment>> CacheDeployment(
    const BenchConfig& config, const ChefAttributes& extra) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "3");
  karamel.SetAttribute("cluster/cores", "2");
  karamel.SetAttribute("snv/chunks", StrFormat("%d", config.chunks));
  karamel.SetAttribute("snv/chunk_mb", StrFormat("%lld",
                       static_cast<long long>(config.chunk_mb)));
  karamel.SetAttribute("hiway/cache_results", "on");
  karamel.SetAttribute("hiway/cache_staging_mb", "0");  // unbounded
  for (const auto& [k, v] : extra) karamel.SetAttribute(k, v);
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(SnvWorkflowRecipe());
  return karamel.Converge();
}

struct WaveStats {
  std::string name;
  double makespan_s = 0.0;
  int tasks_completed = 0;
  int tasks_cached = 0;
  bool succeeded = false;
};

Result<WaveStats> RunWave(WorkflowService* service, const std::string& name,
                          const std::string& queue) {
  SubmissionOptions options;
  if (!queue.empty()) options.queue = queue;
  HIWAY_ASSIGN_OR_RETURN(SubmissionId id,
                         service->SubmitStaged("snv-calling", options));
  HIWAY_RETURN_IF_ERROR(service->RunToCompletion());
  const SubmissionRecord* rec = service->record(id);
  if (rec == nullptr) return Status::RuntimeError("no record for " + name);
  WaveStats w;
  w.name = name;
  w.makespan_s = rec->report.Makespan();
  w.tasks_completed = rec->report.tasks_completed;
  w.tasks_cached = rec->report.tasks_cached;
  w.succeeded = rec->state == SubmissionState::kSucceeded;
  return w;
}

std::map<std::string, int64_t> DfsSnapshot(Dfs* dfs) {
  std::map<std::string, int64_t> files;
  for (const std::string& path : dfs->ListFiles()) {
    auto info = dfs->Stat(path);
    if (info.ok()) files[path] = info->size_bytes;
  }
  return files;
}

/// Re-ingests one input chunk in place: same path and size, new bytes
/// (the DFS bumps the file's content fingerprint), invalidating exactly
/// that chunk's downstream cone in the result cache.
Status MutateChunk(Dfs* dfs, const BenchConfig& config, int wave) {
  std::string path = StrFormat("/in/1000genomes/chunk%04d.fq.gz",
                               wave % config.chunks);
  HIWAY_RETURN_IF_ERROR(dfs->Delete(path));
  return dfs->IngestFile(path, config.chunk_mb << 20);
}

struct SweepLevel {
  int64_t max_entries = 0;  // 0 = unbounded
  double cold_makespan_s = 0.0;
  double warm_makespan_s = 0.0;
  int warm_cached = 0;
};

/// One eviction-pressure level: fresh deployment, cold run, identical
/// warm run under the given entry budget.
Result<SweepLevel> RunSweepLevel(const BenchConfig& config,
                                 int64_t max_entries) {
  ChefAttributes extra;
  if (max_entries > 0) {
    extra["hiway/cache_max_entries"] =
        StrFormat("%lld", static_cast<long long>(max_entries));
  }
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                         CacheDeployment(config, extra));
  HIWAY_ASSIGN_OR_RETURN(
      std::unique_ptr<WorkflowService> service,
      WorkflowService::Create(d.get(), WorkflowServiceOptions{}));
  HIWAY_ASSIGN_OR_RETURN(WaveStats cold,
                         RunWave(service.get(), "cold", ""));
  HIWAY_ASSIGN_OR_RETURN(WaveStats warm,
                         RunWave(service.get(), "warm", ""));
  if (!cold.succeeded || !warm.succeeded) {
    return Status::RuntimeError("sweep level run failed");
  }
  SweepLevel level;
  level.max_entries = max_entries;
  level.cold_makespan_s = cold.makespan_s;
  level.warm_makespan_s = warm.makespan_s;
  level.warm_cached = warm.tasks_cached;
  return level;
}

int Main(int argc, char** argv) {
  bool quick = bench::QuickMode(argc, argv);
  bool json = bench::JsonMode(argc, argv);
  BenchConfig config = MakeConfig(quick);

  // -------------------------------------------------- reuse waves ----
  auto d = CacheDeployment(config, {});
  if (!d.ok()) {
    std::fprintf(stderr, "converge: %s\n", d.status().ToString().c_str());
    return 1;
  }
  WorkflowServiceOptions service_options;
  for (const char* name : {"prod", "twin"}) {
    ServiceQueueOptions q;
    q.rm.name = name;
    service_options.queues.push_back(std::move(q));
  }
  auto service = WorkflowService::Create(d->get(), service_options);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }

  std::vector<WaveStats> waves;
  auto run = [&](const std::string& name,
                 const std::string& queue) -> bool {
    auto w = RunWave(service->get(), name, queue);
    if (!w.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   w.status().ToString().c_str());
      return false;
    }
    waves.push_back(*w);
    return true;
  };

  if (!run("cold", "prod")) return 1;
  std::map<std::string, int64_t> cold_files =
      DfsSnapshot((*d)->dfs.get());
  if (!run("repeat", "prod")) return 1;
  bool outputs_identical = DfsSnapshot((*d)->dfs.get()) == cold_files;
  for (int i = 0; i < config.mutated_waves; ++i) {
    Status st = MutateChunk((*d)->dfs.get(), config, i);
    if (!st.ok()) {
      std::fprintf(stderr, "mutate: %s\n", st.ToString().c_str());
      return 1;
    }
    if (!run(StrFormat("mutate-%d", i), "prod")) return 1;
  }

  // Twin-tenant audit: the same document under another queue (= tenant)
  // must recompute everything; its lookups land in tenant_denied.
  int64_t denied_before = (*d)->result_cache->stats().tenant_denied;
  if (!run("twin", "twin")) return 1;
  WaveStats twin = waves.back();
  waves.pop_back();
  int64_t twin_denied =
      (*d)->result_cache->stats().tenant_denied - denied_before;

  const WaveStats& cold = waves[0];
  const WaveStats& repeat = waves[1];
  // A fully-cached repeat can resolve in zero simulated time; clamp so
  // the ratio stays finite and printable.
  auto speedup_vs_cold = [&](double makespan_s) {
    return std::min(cold.makespan_s / std::max(makespan_s, 1e-3), 9999.0);
  };
  double repeat_speedup = speedup_vs_cold(repeat.makespan_s);
  int64_t dangling = (*d)->result_cache->AuditAgainstDfs();
  StagingCacheStats staging = (*d)->staging_cache->stats();

  bool all_ok = twin.succeeded;
  for (const WaveStats& w : waves) all_ok = all_ok && w.succeeded;
  bool repeat_ok = repeat.tasks_cached == repeat.tasks_completed &&
                   outputs_identical &&
                   repeat.makespan_s * 5.0 <= cold.makespan_s;
  bool mutated_ok = true;
  for (size_t i = 2; i < waves.size(); ++i) {
    const WaveStats& w = waves[i];
    // Exactly one chunk changed: its chain recomputes, the rest hit.
    mutated_ok = mutated_ok && w.makespan_s < cold.makespan_s &&
                 w.tasks_cached == w.tasks_completed - config.chain_length;
  }
  bool twin_ok = twin.tasks_cached == 0 && twin_denied > 0;

  // --------------------------------------------- eviction sweep ------
  // Identical cold+warm pair per level; only the entry budget shrinks.
  // The cold run publishes stage by stage (every align before every
  // sort, ...), so the LRU sheds the oldest entries — the aligns — first,
  // and a chain whose align is gone recomputes end to end (the re-written
  // align output stales its downstream entries). Budgets therefore step
  // through "a quarter of the chains lost", "half lost", "all lost":
  // warm makespan climbs toward the cold makespan and settles there.
  int total = config.total_tasks();
  std::vector<int64_t> budgets = {0, total - config.chunks / 4,
                                  total - config.chunks / 2,
                                  total - config.chunks, 1};
  std::vector<SweepLevel> sweep;
  for (int64_t budget : budgets) {
    auto level = RunSweepLevel(config, budget);
    if (!level.ok()) {
      std::fprintf(stderr, "sweep(%lld): %s\n",
                   static_cast<long long>(budget),
                   level.status().ToString().c_str());
      return 1;
    }
    sweep.push_back(*level);
  }
  bool sweep_ok = true;
  for (size_t i = 0; i < sweep.size(); ++i) {
    // Never meaningfully below cold (1.10x covers warm-seed noise)...
    sweep_ok = sweep_ok &&
               sweep[i].warm_makespan_s <= sweep[i].cold_makespan_s * 1.10;
    // ...and monotonically degrading as the budget shrinks.
    if (i > 0) {
      sweep_ok = sweep_ok && sweep[i].warm_makespan_s >=
                                 sweep[i - 1].warm_makespan_s * 0.98;
    }
  }

  bool pass = all_ok && repeat_ok && mutated_ok && twin_ok && sweep_ok &&
              dangling == 0;

  if (json) {
    std::printf("{\"cold_makespan_s\": %.3f, \"repeat_makespan_s\": %.3f, "
                "\"repeat_speedup\": %.2f, \"outputs_identical\": %s, "
                "\"total_tasks\": %d, \"waves\": [",
                cold.makespan_s, repeat.makespan_s, repeat_speedup,
                outputs_identical ? "true" : "false",
                config.total_tasks());
    for (size_t i = 0; i < waves.size(); ++i) {
      const WaveStats& w = waves[i];
      std::printf("%s{\"name\": \"%s\", \"makespan_s\": %.3f, "
                  "\"tasks_cached\": %d, \"tasks_completed\": %d}",
                  i > 0 ? ", " : "", w.name.c_str(), w.makespan_s,
                  w.tasks_cached, w.tasks_completed);
    }
    std::printf("], \"twin\": {\"tasks_cached\": %d, \"tenant_denied\": "
                "%lld}, \"staging\": {\"hits\": %lld, \"bytes_served\": "
                "%lld}, \"dangling_entries\": %lld, \"eviction_sweep\": [",
                twin.tasks_cached, static_cast<long long>(twin_denied),
                static_cast<long long>(staging.hits),
                static_cast<long long>(staging.bytes_served),
                static_cast<long long>(dangling));
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepLevel& s = sweep[i];
      std::printf("%s{\"max_entries\": %lld, \"cold_makespan_s\": %.3f, "
                  "\"warm_makespan_s\": %.3f, \"warm_cached\": %d}",
                  i > 0 ? ", " : "",
                  static_cast<long long>(s.max_entries), s.cold_makespan_s,
                  s.warm_makespan_s, s.warm_cached);
    }
    std::printf("], \"pass\": %s}\n", pass ? "true" : "false");
    return pass ? 0 : 1;
  }

  bench::PrintHeader("Result-cache reuse: repeated SNV submission waves");
  std::printf("snv %d chunks x %lld MiB (%d tasks) on 3 workers x 2 "
              "cores; result cache on, staging cache unbounded%s\n\n",
              config.chunks, static_cast<long long>(config.chunk_mb),
              config.total_tasks(), quick ? "  [quick]" : "");
  std::printf("%-10s %12s %8s %8s %9s\n", "wave", "makespan", "cached",
              "total", "speedup");
  bench::PrintRule(52);
  for (const WaveStats& w : waves) {
    std::printf("%-10s %12s %8d %8d %8.1fx\n", w.name.c_str(),
                HumanDuration(w.makespan_s).c_str(), w.tasks_cached,
                w.tasks_completed, speedup_vs_cold(w.makespan_s));
  }
  std::printf("\nrepeat outputs byte-identical: %s; staging hits %lld "
              "(%s served); dangling entries %lld\n",
              outputs_identical ? "yes" : "NO",
              static_cast<long long>(staging.hits),
              HumanBytes(static_cast<double>(staging.bytes_served)).c_str(),
              static_cast<long long>(dangling));
  std::printf("twin tenant: %d cached (want 0), %lld lookups denied\n",
              twin.tasks_cached, static_cast<long long>(twin_denied));

  std::printf("\neviction-pressure sweep (identical cold+warm pair per "
              "budget)\n");
  std::printf("%-12s %12s %12s %8s %9s\n", "max_entries", "cold", "warm",
              "cached", "speedup");
  bench::PrintRule(58);
  for (const SweepLevel& s : sweep) {
    std::printf("%-12s %12s %12s %8d %8.1fx\n",
                s.max_entries == 0
                    ? "unbounded"
                    : StrFormat("%lld",
                                static_cast<long long>(s.max_entries))
                          .c_str(),
                HumanDuration(s.cold_makespan_s).c_str(),
                HumanDuration(s.warm_makespan_s).c_str(), s.warm_cached,
                std::min(s.cold_makespan_s /
                             std::max(s.warm_makespan_s, 1e-3),
                         9999.0));
  }

  if (!all_ok) {
    std::fprintf(stderr, "\nFAIL: not every submission succeeded\n");
    return 1;
  }
  if (!repeat_ok) {
    std::fprintf(stderr,
                 "\nFAIL: identical repeat must be fully cached, "
                 "byte-identical, and >= 5x faster (got %.1fx, %d/%d "
                 "cached)\n",
                 repeat_speedup, repeat.tasks_cached,
                 repeat.tasks_completed);
    return 1;
  }
  if (!mutated_ok) {
    std::fprintf(stderr, "\nFAIL: a mutated wave missed its hit budget "
                         "or ran slower than cold\n");
    return 1;
  }
  if (!twin_ok) {
    std::fprintf(stderr, "\nFAIL: twin tenant saw cache hits (%d) or no "
                         "denials (%lld)\n",
                 twin.tasks_cached, static_cast<long long>(twin_denied));
    return 1;
  }
  if (!sweep_ok) {
    std::fprintf(stderr, "\nFAIL: eviction sweep not monotone toward "
                         "cold (or warm fell past cold)\n");
    return 1;
  }
  if (dangling != 0) {
    std::fprintf(stderr, "\nFAIL: %lld dangling cache entries\n",
                 static_cast<long long>(dangling));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hiway

int main(int argc, char** argv) { return hiway::Main(argc, argv); }
