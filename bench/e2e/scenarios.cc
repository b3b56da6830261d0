#include "bench/e2e/scenarios.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "src/common/random.h"
#include "src/common/strings.h"
#include "src/core/client.h"
#include "src/core/metrics.h"
#include "src/infra/karamel.h"
#include "src/lang/cuneiform.h"
#include "src/lang/dax_source.h"
#include "src/lang/galaxy_source.h"
#include "src/service/workflow_service.h"
#include "src/workloads/workloads.h"

namespace hiway {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Host seconds one replay spends in each set-up step.
struct SetupTimes {
  double converge_s = 0.0;
  double generate_s = 0.0;
  double ingest_s = 0.0;
  double parse_s = 0.0;
  double submit_s = 0.0;
};

/// One workflow to run, as generated from the workload seed.
struct Job {
  std::string name;
  std::string queue = "default";
  std::string language;  // "cuneiform" | "galaxy" | "dax"
  std::string document;
  std::vector<std::pair<std::string, int64_t>> inputs;
  std::map<std::string, std::string> galaxy_inputs;
  /// Where generated outputs go: the Galaxy output directory or the DAX
  /// file prefix (instances of one document must not share outputs).
  std::string prefix;
  /// Tasks a successful run completes; 0 = not known up front.
  int expected_tasks = 0;
};

/// A parsed job, plus what its run must produce.
struct Parsed {
  std::unique_ptr<WorkflowSource> source;
  int expected_tasks = 0;
  std::vector<std::string> targets;
};

/// How one workflow ended.
struct Outcome {
  std::string state;
  /// Virtual seconds from submission to the terminal state.
  double turnaround_s = 0.0;
  WorkflowReport report;
  int expected_tasks = 0;
  std::vector<std::string> targets;
};

/// How far, as a share, an input size may stray from its nominal value.
/// Small, so that virtual times move little from seed to seed: over ten
/// seeds the makespans' quartile spread stays below 0.5%, well inside
/// their 2% bound.
constexpr double kJitter = 0.01;

/// Nominal input sizes vary by up to kJitter either way, drawn from the
/// workload seed: a seed changes the inputs, never the workflow's shape.
void Jitter(Rng* rng, std::vector<std::pair<std::string, int64_t>>* inputs) {
  for (auto& input : *inputs) {
    input.second = static_cast<int64_t>(static_cast<double>(input.second) *
                                        rng->Uniform(1.0 - kJitter,
                                                     1.0 + kJitter));
  }
}

Job SnvJob(Rng* rng, int chunks, int64_t chunk_mb, const std::string& dir) {
  SnvWorkloadOptions options;
  options.num_chunks = chunks;
  options.chunk_bytes = chunk_mb << 20;
  options.input_dir = dir;
  GeneratedWorkload w = MakeSnvCallingWorkflow(options);
  Job job;
  job.language = "cuneiform";
  job.document = std::move(w.document);
  job.inputs = std::move(w.inputs);
  job.expected_tasks = 4 * chunks;  // align, sort, call, annotate
  Jitter(rng, &job.inputs);
  return job;
}

Job KmeansJob(Rng* rng, int64_t points_mb, const std::string& dir) {
  KmeansWorkloadOptions options;
  options.points_bytes = points_mb << 20;
  options.converge_after = 3;
  options.input_path = dir + "/points.csv";
  GeneratedWorkload w = MakeKmeansWorkflow(options);
  Job job;
  job.language = "cuneiform";
  job.document = std::move(w.document);
  job.inputs = std::move(w.inputs);
  Jitter(rng, &job.inputs);
  return job;
}

Job TraplineJob(Rng* rng, int replicates, int64_t sample_mb,
                const std::string& dir) {
  RnaSeqWorkloadOptions options;
  options.replicates_per_condition = replicates;
  options.sample_bytes = sample_mb << 20;
  options.input_dir = dir + "/in";
  GeneratedWorkload w = MakeTraplineWorkflow(options);
  Job job;
  job.language = "galaxy";
  job.document = std::move(w.document);
  job.inputs = std::move(w.inputs);
  for (const auto& [name, path] : TraplineInputBindings(options)) {
    job.galaxy_inputs[name] = path;
  }
  job.prefix = dir + "/out";
  Jitter(rng, &job.inputs);
  return job;
}

Job MontageJob(Rng* rng, int images, int64_t image_mb,
               const std::string& dir) {
  MontageWorkloadOptions options;
  options.num_images = images;
  options.image_bytes = image_mb << 20;
  GeneratedWorkload w = MakeMontageWorkflow(options);
  Job job;
  job.language = "dax";
  job.document = std::move(w.document);
  job.prefix = dir + "/";
  // The generator stages inputs under the DAX front-end's default prefix.
  constexpr std::string_view kDefaultPrefix = "/dax/";
  for (auto& [path, bytes] : w.inputs) {
    job.inputs.emplace_back(job.prefix + path.substr(kDefaultPrefix.size()),
                            bytes);
  }
  Jitter(rng, &job.inputs);
  return job;
}

Result<Parsed> Parse(const Job& job) {
  Parsed out;
  out.expected_tasks = job.expected_tasks;
  if (job.language == "cuneiform") {
    HIWAY_ASSIGN_OR_RETURN(out.source, CuneiformSource::Parse(job.document));
  } else if (job.language == "galaxy") {
    HIWAY_ASSIGN_OR_RETURN(
        std::unique_ptr<GalaxySource> source,
        GalaxySource::Parse(job.document, job.galaxy_inputs, job.prefix));
    out.expected_tasks = static_cast<int>(source->task_count());
    out.targets = source->Targets();
    out.source = std::move(source);
  } else if (job.language == "dax") {
    HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<DaxSource> source,
                           DaxSource::Parse(job.document, job.prefix));
    out.expected_tasks = static_cast<int>(source->task_count());
    out.targets = source->Targets();
    out.source = std::move(source);
  } else {
    return Status::InvalidArgument("unknown language " + job.language);
  }
  return out;
}

Result<std::unique_ptr<Deployment>> Converge(const ChefAttributes& attrs,
                                             SetupTimes* times) {
  Clock::time_point start = Clock::now();
  Karamel karamel;
  for (const auto& [key, value] : attrs) karamel.SetAttribute(key, value);
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  auto deployment = karamel.Converge();
  times->converge_s += SecondsSince(start);
  return deployment;
}

Status Ingest(Dfs* dfs, const std::vector<Job>& jobs, SetupTimes* times) {
  Clock::time_point start = Clock::now();
  for (const Job& job : jobs) {
    for (const auto& [path, bytes] : job.inputs) {
      // Service workloads resubmit the same input set many times.
      if (!dfs->Exists(path)) HIWAY_RETURN_IF_ERROR(dfs->IngestFile(path, bytes));
    }
  }
  times->ingest_s += SecondsSince(start);
  return Status::OK();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Digest(const Dfs& dfs, const std::vector<Outcome>& outcomes) {
  uint64_t h = Fnv1a64("");
  for (const std::string& path : dfs.ListFiles()) {
    auto info = dfs.Stat(path);
    h = Fnv1a64(StrFormat("%s\t%lld\n", path.c_str(),
                          static_cast<long long>(
                              info.ok() ? info->size_bytes : -1)),
                h);
  }
  for (const Outcome& o : outcomes) {
    h = Fnv1a64(StrFormat("%s\t%a\t%a\n", o.state.c_str(),
                          o.report.Makespan(), o.turnaround_s),
                h);
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(h));
}

/// Checks every workflow's outputs and turns the deployment's counters
/// into metric values.
Result<Replay> Finish(const Deployment& d, const SetupTimes& t,
                      double run_wall_s, const std::vector<Outcome>& outcomes,
                      const WorkflowService* service) {
  Replay replay;
  replay.workflows = static_cast<int>(outcomes.size());
  std::vector<double> turnarounds;
  int succeeded = 0;
  int64_t invocations = 0;
  int64_t attempts = 0;
  int64_t failed_attempts = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (o.state != "succeeded") {
      return Status::RuntimeError(StrFormat(
          "workflow %zu ended %s: %s", i, o.state.c_str(),
          o.report.status.ToString().c_str()));
    }
    if (o.expected_tasks > 0 && o.report.tasks_completed != o.expected_tasks) {
      return Status::RuntimeError(
          StrFormat("workflow %zu completed %d tasks, expected %d", i,
                    o.report.tasks_completed, o.expected_tasks));
    }
    for (const std::string& target : o.targets) {
      if (!d.dfs->Exists(target)) {
        return Status::RuntimeError(StrFormat(
            "workflow %zu: target %s missing from DFS", i, target.c_str()));
      }
    }
    ++succeeded;
    turnarounds.push_back(o.turnaround_s);
    invocations += o.report.scheduler_invocations;
    attempts += o.report.task_attempts;
    failed_attempts += o.report.failed_attempts;
  }
  auto& v = replay.values;
  v["setup_s"] =
      t.converge_s + t.generate_s + t.ingest_s + t.parse_s + t.submit_s;
  v["run_wall_s"] = run_wall_s;
  v["sim_makespan_s"] = *std::max_element(turnarounds.begin(), turnarounds.end());
  v["p95_turnaround_s"] = Percentile(turnarounds, 95.0);
  v["ok_frac"] = Ratio(succeeded, static_cast<double>(outcomes.size()));

  double events = static_cast<double>(d.engine.events_executed());
  v["sim.engine.events"] = events;
  v["sim.engine.events_per_s"] = Ratio(events, run_wall_s);
  v["sim.engine.peak_pending"] = static_cast<double>(d.engine.peak_pending());
  v["sim.engine.compactions"] = static_cast<double>(d.engine.compactions());
  v["yarn.passes"] = static_cast<double>(d.rm->allocation_passes());
  v["yarn.pass_wall_s"] = d.rm->allocation_pass_wall_s();
  v["yarn.allocations"] = static_cast<double>(d.rm->counters().allocations);
  v["yarn.preempted"] =
      static_cast<double>(d.rm->counters().preempted_containers);
  const DfsCounters& dfs = d.dfs->counters();
  v["hdfs.metadata_ops"] = static_cast<double>(dfs.metadata_ops);
  v["hdfs.local_read_frac"] =
      Ratio(static_cast<double>(dfs.bytes_read_local),
            static_cast<double>(dfs.bytes_read_local + dfs.bytes_read_remote));
  v["hdfs.bytes_written"] = static_cast<double>(dfs.bytes_written);
  v["hdfs.files_deleted"] = static_cast<double>(dfs.files_deleted);
  v["hdfs.capacity_rejections"] = static_cast<double>(dfs.capacity_rejections);
  v["hdfs.ingest_s"] = t.ingest_s;
  v["core.am.scheduler_invocations"] = static_cast<double>(invocations);
  v["core.am.retry_frac"] = Ratio(static_cast<double>(failed_attempts),
                                  static_cast<double>(attempts));
  v["core.provenance.events"] = static_cast<double>(d.provenance->size());
  v["cache.result_hit_frac"] = 0.0;
  if (d.result_cache != nullptr) {
    ResultCacheStats stats = d.result_cache->stats();
    v["cache.result_hit_frac"] = Ratio(static_cast<double>(stats.hits),
                                       static_cast<double>(stats.hits +
                                                           stats.misses));
  }
  v["cache.staging_hit_frac"] = 0.0;
  if (d.staging_cache != nullptr) {
    StagingCacheStats stats = d.staging_cache->stats();
    v["cache.staging_hit_frac"] = Ratio(static_cast<double>(stats.hits),
                                        static_cast<double>(stats.hits +
                                                            stats.misses));
  }
  v["gc.files_collected"] =
      d.gc ? static_cast<double>(d.gc->stats().files_collected) : 0.0;
  v["gc.cache_deferrals"] =
      d.gc ? static_cast<double>(d.gc->stats().cache_deferrals) : 0.0;
  double rejected = 0.0;
  if (service != nullptr) {
    for (const std::string& queue : service->QueueNames()) {
      rejected += static_cast<double>(service->queue_counters(queue)->rejected);
    }
  }
  v["service.rejected"] = rejected;
  v["service.submit_s"] = t.submit_s;
  v["lang.parse_s"] = t.parse_s;
  v["infra.converge_s"] = t.converge_s;
  v["workloads.generate_s"] = t.generate_s;
  replay.digest = Digest(*d.dfs, outcomes);
  return replay;
}

/// One workflow through HiWayClient, the paper's single-experiment path.
Result<Replay> RunSingle(const ChefAttributes& attrs, const Job& job,
                         const std::string& policy,
                         const HiWayOptions& options, SetupTimes t,
                         StackSampler* sampler) {
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, Converge(attrs, &t));
  HIWAY_RETURN_IF_ERROR(Ingest(d->dfs.get(), {job}, &t));
  Clock::time_point start = Clock::now();
  HIWAY_ASSIGN_OR_RETURN(Parsed parsed, Parse(job));
  t.parse_s += SecondsSince(start);

  HiWayClient client(d.get());
  start = Clock::now();
  if (sampler != nullptr) HIWAY_RETURN_IF_ERROR(sampler->Start());
  auto report = client.RunSource(parsed.source.get(), policy, options);
  if (sampler != nullptr) sampler->Stop();
  double run_wall_s = SecondsSince(start);
  HIWAY_RETURN_IF_ERROR(report.status());

  Outcome outcome;
  outcome.state = report->status.ok() ? "succeeded" : "failed";
  outcome.turnaround_s = report->Makespan();
  outcome.report = *report;
  outcome.expected_tasks = parsed.expected_tasks;
  outcome.targets = parsed.source->Targets();
  return Finish(*d, t, run_wall_s, {outcome}, nullptr);
}

/// Many workflows through the multi-tenant WorkflowService.
Result<Replay> RunService(const ChefAttributes& attrs,
                          const std::vector<Job>& jobs,
                          WorkflowServiceOptions service_options,
                          SetupTimes t, StackSampler* sampler) {
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, Converge(attrs, &t));
  HIWAY_RETURN_IF_ERROR(Ingest(d->dfs.get(), jobs, &t));
  Clock::time_point start = Clock::now();
  bool factories = service_options.footprint_admission;
  HIWAY_ASSIGN_OR_RETURN(
      std::unique_ptr<WorkflowService> service,
      WorkflowService::Create(d.get(), std::move(service_options)));
  t.submit_s += SecondsSince(start);

  std::vector<Outcome> outcomes(jobs.size());
  std::vector<SubmissionId> ids;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    start = Clock::now();
    HIWAY_ASSIGN_OR_RETURN(Parsed parsed, Parse(job));
    t.parse_s += SecondsSince(start);
    outcomes[i].expected_tasks = parsed.expected_tasks;
    outcomes[i].targets = parsed.targets;
    start = Clock::now();
    SubmissionOptions options;
    options.queue = job.queue;
    if (factories) {
      // Footprint admission estimates from a throwaway source.
      options.source_factory =
          [&job]() -> Result<std::unique_ptr<WorkflowSource>> {
        HIWAY_ASSIGN_OR_RETURN(Parsed p, Parse(job));
        return std::move(p.source);
      };
    }
    HIWAY_ASSIGN_OR_RETURN(
        SubmissionId id,
        service->Submit(job.name, std::move(parsed.source), options));
    ids.push_back(id);
    t.submit_s += SecondsSince(start);
  }

  start = Clock::now();
  if (sampler != nullptr) HIWAY_RETURN_IF_ERROR(sampler->Start());
  Status st = service->RunToCompletion();
  if (sampler != nullptr) sampler->Stop();
  double run_wall_s = SecondsSince(start);
  HIWAY_RETURN_IF_ERROR(st);

  for (size_t i = 0; i < ids.size(); ++i) {
    const SubmissionRecord* rec = service->record(ids[i]);
    outcomes[i].state = ToString(rec->state);
    outcomes[i].turnaround_s = rec->finished_at - rec->submitted_at;
    outcomes[i].report = rec->report;
  }
  return Finish(*d, t, run_wall_s, outcomes, service.get());
}

// Sizes are cut down from the paper's so that a replay takes about a
// second (README.md lists the paper's own sizes).

/// Fig. 4: SNV calling in Cuneiform under the data-aware policy, 24 nodes
/// x 24 one-core containers behind one oversubscribed switch.
Result<Replay> SnvFig4(uint64_t seed, bool quick, StackSampler* sampler) {
  SetupTimes t;
  Clock::time_point start = Clock::now();
  Rng rng(seed);
  Job job = SnvJob(&rng, quick ? 128 : 288, 128, "/in/1000genomes");
  t.generate_s = SecondsSince(start);
  ChefAttributes attrs = {
      {"cluster/workers", "24"},      {"cluster/cores", "24"},
      {"cluster/memory_mb", "25600"}, {"cluster/disk_mbps", "300"},
      {"cluster/nic_mbps", "125"},    {"cluster/switch_mbps", "250"},
      {"dfs/replication", "2"},       {"seed", "4576"},
  };
  HiWayOptions options;
  options.container_vcores = 1;
  options.container_memory_mb = 1024;
  options.am_vcores = 0;
  options.am_memory_mb = 1024;
  options.seed = 4576;
  return RunSingle(attrs, job, "data-aware", options, t, sampler);
}

/// Fig. 9's Montage DAX, scaled up so locality queries dominate.
Result<Replay> MontageLocality(uint64_t seed, bool quick,
                               StackSampler* sampler) {
  SetupTimes t;
  Clock::time_point start = Clock::now();
  Rng rng(seed);
  Job job = MontageJob(&rng, quick ? 250 : 400, 4, "/in/2mass");
  t.generate_s = SecondsSince(start);
  ChefAttributes attrs = {
      {"cluster/workers", "25"}, {"cluster/cores", "4"}, {"seed", "9000"}};
  HiWayOptions options;
  options.seed = 9000;
  return RunSingle(attrs, job, "data-aware", options, t, sampler);
}

/// Every front-end at once: SNV and k-means (Cuneiform), TRAPLINE
/// (Galaxy) and Montage (DAX) submitted together to a fair-shared RM.
Result<Replay> ServiceBurst(uint64_t seed, bool quick,
                            StackSampler* sampler) {
  SetupTimes t;
  Clock::time_point start = Clock::now();
  Rng rng(seed);
  std::vector<Job> jobs;
  int per_kind = quick ? 48 : 128;
  for (int i = 0; i < per_kind; ++i) {
    std::string dir = StrFormat("/burst/%04d", i);
    Job snv = SnvJob(&rng, 4, 64, dir + "/snv");
    snv.queue = "genomics";
    Job rna = TraplineJob(&rng, 2, 48, dir + "/rna");
    rna.queue = "genomics";
    Job sky = MontageJob(&rng, 6, 4, dir + "/sky");
    sky.queue = "analytics";
    Job km = KmeansJob(&rng, 32, dir + "/kmeans");
    km.queue = "analytics";
    snv.name = dir + "/snv";
    rna.name = dir + "/rna";
    sky.name = dir + "/sky";
    km.name = dir + "/kmeans";
    for (Job* job : {&snv, &rna, &sky, &km}) jobs.push_back(std::move(*job));
  }
  t.generate_s = SecondsSince(start);
  ChefAttributes attrs = {
      {"cluster/workers", "64"}, {"cluster/cores", "4"}, {"seed", "2048"}};
  WorkflowServiceOptions options;
  options.rm_scheduler = "fair";
  options.base_seed = 2048;
  for (const char* name : {"genomics", "analytics"}) {
    ServiceQueueOptions queue;
    queue.rm.name = name;
    queue.rm.guaranteed_share = 0.5;
    queue.max_concurrent_ams = 32;
    queue.max_backlog = static_cast<int>(jobs.size());
    options.queues.push_back(queue);
  }
  return RunService(attrs, jobs, std::move(options), t, sampler);
}

/// Repeated TRAPLINE and Montage submissions over a few input sets, with
/// every data-lifecycle feature on: result and staging caches, GC, a
/// capacity-limited DFS and footprint-aware admission.
Result<Replay> ServiceReuse(uint64_t seed, bool quick,
                            StackSampler* sampler) {
  // With 16 input sets nearly every task hits the 256-entry result cache;
  // with 32, the cyclic resubmission order evicts every entry before its
  // reuse and no lookup hits. Fewer AMs per queue than sets per queue
  // keep two runs of one set from racing to publish the same outputs: at
  // 16 AMs per queue that race made the virtual makespan swing by 10%
  // with any change of input sizes.
  constexpr int kSetsPerKind = 8;
  SetupTimes t;
  Clock::time_point start = Clock::now();
  Rng rng(seed);
  std::vector<Job> rna_sets;
  std::vector<Job> sky_sets;
  for (int s = 0; s < kSetsPerKind; ++s) {
    rna_sets.push_back(TraplineJob(&rng, 3, 32, StrFormat("/reuse/rna%02d", s)));
    rna_sets.back().queue = "rnaseq";
    sky_sets.push_back(MontageJob(&rng, 6, 4, StrFormat("/reuse/sky%02d", s)));
    sky_sets.back().queue = "astro";
  }
  std::vector<Job> jobs;
  int per_kind = quick ? 128 : 512;
  for (int i = 0; i < per_kind; ++i) {
    for (const std::vector<Job>* sets : {&rna_sets, &sky_sets}) {
      jobs.push_back((*sets)[static_cast<size_t>(i % kSetsPerKind)]);
      jobs.back().name = StrFormat("%s#%d", jobs.back().prefix.c_str(), i);
    }
  }
  t.generate_s = SecondsSince(start);
  ChefAttributes attrs = {
      {"cluster/workers", "32"},
      {"cluster/cores", "4"},
      {"seed", "1024"},
      {"dfs/capacity_mb", "400000"},
      {"hiway/cache_results", "on"},
      {"hiway/cache_max_entries", "256"},
      {"hiway/cache_staging_mb", "2048"},
      {"hiway/gc", "on"},
  };
  WorkflowServiceOptions options;
  options.rm_scheduler = "fair";
  options.base_seed = 1024;
  options.footprint_admission = true;
  for (const char* name : {"rnaseq", "astro"}) {
    ServiceQueueOptions queue;
    queue.rm.name = name;
    queue.rm.guaranteed_share = 0.5;
    queue.max_concurrent_ams = 4;
    queue.max_backlog = static_cast<int>(jobs.size());
    options.queues.push_back(queue);
  }
  return RunService(attrs, jobs, std::move(options), t, sampler);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const auto* names = new std::vector<std::string>{
      "snv-fig4", "montage-locality", "service-burst", "service-reuse"};
  return *names;
}

Result<Replay> RunWorkload(const std::string& name, uint64_t seed, bool quick,
                           StackSampler* sampler) {
  if (name == "snv-fig4") return SnvFig4(seed, quick, sampler);
  if (name == "montage-locality") return MontageLocality(seed, quick, sampler);
  if (name == "service-burst") return ServiceBurst(seed, quick, sampler);
  if (name == "service-reuse") return ServiceReuse(seed, quick, sampler);
  return Status::InvalidArgument("unknown workload: " + name);
}

}  // namespace e2e
}  // namespace hiway
