// hiway — command-line front door to the simulator-backed Hi-WAY stack.
//
// Mirrors the paper's light-weight client (Sec. 3.1): point it at a
// workflow file in any supported language, describe the cluster with
// Chef-style attributes, pick a scheduling policy, and it provisions the
// deployment, stages declared inputs, executes the workflow, and reports
// the outcome (optionally dumping the re-executable provenance trace).
//
//   hiway --workflow wf.cf --language cuneiform --policy data-aware
//         -a cluster/workers=8 -a cluster/cores=4
//         --input /in/reads.fq=256MB --trace-out trace.jsonl
//
// Languages: cuneiform | dax | galaxy | trace.
// Galaxy placeholders resolve via repeated --galaxy-input name=/dfs/path.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/common/strings.h"
#include "src/core/client.h"
#include "src/core/metrics.h"
#include "src/obs/exporters.h"
#include "src/obs/trace_analyzer.h"
#include "src/service/workflow_service.h"
#include "src/sim/fault_injector.h"

namespace hiway {
namespace {

/// A flag that is shorthand for one `-a KEY=VALUE` attribute. It only
/// copies its value: the attribute table checks it at converge time.
struct AttributeAlias {
  const char* flag;
  const char* key;
  /// The value a switch flag sets; nullptr = the flag takes a value.
  const char* value;
};

constexpr AttributeAlias kAttributeAliases[] = {
    {"--dfs-capacity-mb", "dfs/capacity_mb", nullptr},
    {"--gc", "hiway/gc", "on"},
    {"--result-cache", "hiway/cache_results", "on"},
    {"--staging-cache-mb", "hiway/cache_staging_mb", nullptr},
    {"--cache-verify", "hiway/cache_verify", "on"},
    {"--rm-scheduler", "yarn/scheduler", nullptr},
    {"--preemption", "yarn/preemption", "true"},
    {"--preemption-grace", "yarn/preemption_grace_s", nullptr},
    {"--max-preempt-per-round", "yarn/max_preempt_per_round", nullptr},
    {"--autoscaler", "elastic/autoscaler", nullptr},
};

const AttributeAlias* FindAlias(std::string_view flag) {
  for (const AttributeAlias& alias : kAttributeAliases) {
    if (flag == alias.flag) return &alias;
  }
  return nullptr;
}

void PrintUsage() {
  std::printf(
      "usage: hiway --workflow FILE [options]\n"
      "\n"
      "workflow execution:\n"
      "  --workflow FILE          workflow document to execute (repeatable\n"
      "                           in --service mode)\n"
      "  --cwl FILE               shorthand for --workflow FILE with the\n"
      "                           CWL front-end forced for that file\n"
      "  --language LANG          cuneiform | dax | galaxy | trace | cwl\n"
      "                           (default: guessed from the extension:\n"
      "                            .cf/.cuneiform, .xml/.dax, .ga/.json,\n"
      "                            .jsonl/.trace, .cwl/.cwl.json)\n"
      "  --policy POLICY          fcfs | data-aware | round-robin | heft |\n"
      "                           online-mct (default: data-aware)\n"
      "  --vcores N               container vcores (default 1)\n"
      "  --memory MB              container memory (default 1024)\n"
      "  --tailor-containers      per-task container sizing (Sec. 5)\n"
      "  --seed N                 simulation seed (default 42)\n"
      "  --verbose                per-task completion log\n"
      "  --help                   this message\n"
      "\n"
      "deployment & storage (docs/storage-model.md):\n"
      "  -a KEY=VALUE             Chef-style deployment attribute, e.g.\n"
      "                           -a cluster/workers=8 (repeatable; every\n"
      "                           key is listed at the end)\n"
      "  --input PATH=SIZE        stage an input file into DFS; SIZE takes\n"
      "                           B/KB/MB/GB suffixes (repeatable)\n"
      "  --galaxy-input NAME=PATH resolve a Galaxy input placeholder\n"
      "\n"
      "observability (docs/observability.md):\n"
      "  --trace-out FILE         write the provenance trace (JSON lines)\n"
      "  --chrome-trace-out FILE  write an execution trace in Chrome\n"
      "                           trace_event JSON (load in Perfetto) and\n"
      "                           print the critical-path breakdown\n"
      "  --metrics-out FILE       write a Prometheus-style text snapshot\n"
      "                           of per-span counters\n"
      "\n"
      "multi-tenant service mode (many AMs in one deployment):\n"
      "  --service                run all --workflow flags concurrently\n"
      "                           through the WorkflowService gateway\n"
      "  --queue NAME             submit subsequent --workflow flags to\n"
      "                           this service queue (default 'default')\n"
      "  --queue-config NAME=G,M,AMS,BACKLOG\n"
      "                           configure a queue: guaranteed share G,\n"
      "                           max share M (fractions of the cluster),\n"
      "                           AMS concurrent AMs, BACKLOG waiting\n"
      "                           submissions (repeatable)\n"
      "  --priority N             preemption priority for subsequent\n"
      "                           --workflow flags (lower = preempted\n"
      "                           first; default 0)\n"
      "  --footprint-admission    only co-schedule workflows whose\n"
      "                           combined estimated storage footprint\n"
      "                           fits the DFS capacity; needs\n"
      "                           --dfs-capacity-mb (docs/storage-model.md)\n"
      "  --faults SPEC            inject failures while the burst runs,\n"
      "                           e.g. kill-am-node@60,hdfs-error:rate=0.05\n"
      "                           (see docs/failure-model.md for the\n"
      "                           grammar; targets are drawn from --seed)\n"
      "\n"
      "elastic cluster membership (docs/elastic-cluster.md):\n"
      "  --spot-fraction F        treat the highest F fraction of workers\n"
      "                           as spot instances: spot-revoke faults\n"
      "                           only target those (default: any node)\n"
      "  --revoke-warning-s S     default revocation warning for\n"
      "                           spot-revoke clauses without warn=\n"
      "                           (default 120, the EC2 notice)\n"
      "\n"
      "attribute shorthands (a bad value fails the deployment, exit 1):\n");
  for (const AttributeAlias& alias : kAttributeAliases) {
    std::string flag = alias.flag;
    if (alias.value == nullptr) flag += " VALUE";
    std::printf("  %-30s -a %s=%s\n", flag.c_str(), alias.key,
                alias.value != nullptr ? alias.value : "VALUE");
  }
  std::printf(
      "\n"
      "deployment attributes (-a KEY=VALUE; a switch takes\n"
      "on|off|true|false|1|0; unknown keys are an error):\n"
      "  %-27s %-17s %-19s %s\n",
      "KEY", "DEFAULT", "RANGE", "MEANING");
  for (const AttributeSpec& spec : AttributeTable()) {
    std::string def = *spec.default_value != '\0' ? spec.default_value
                                                  : "\"\"";
    std::printf("  %-27s %-17s %-19s %s\n", spec.key, def.c_str(),
                AttributeRange(spec).c_str(), spec.meaning);
  }
}

Result<int64_t> ParseSize(std::string_view text) {
  double factor = 1.0;
  std::string_view number = text;
  if (EndsWith(text, "GB")) {
    factor = 1024.0 * 1024.0 * 1024.0;
    number = text.substr(0, text.size() - 2);
  } else if (EndsWith(text, "MB")) {
    factor = 1024.0 * 1024.0;
    number = text.substr(0, text.size() - 2);
  } else if (EndsWith(text, "KB")) {
    factor = 1024.0;
    number = text.substr(0, text.size() - 2);
  } else if (EndsWith(text, "B")) {
    number = text.substr(0, text.size() - 1);
  }
  HIWAY_ASSIGN_OR_RETURN(double value, ParseDouble(number));
  return static_cast<int64_t>(value * factor);
}

std::string GuessLanguage(const std::string& path) {
  if (EndsWith(path, ".cf") || EndsWith(path, ".cuneiform")) {
    return "cuneiform";
  }
  if (EndsWith(path, ".dax") || EndsWith(path, ".xml")) return "dax";
  // .cwl.json before the bare .json (galaxy) rule.
  if (EndsWith(path, ".cwl") || EndsWith(path, ".cwl.json")) return "cwl";
  if (EndsWith(path, ".ga") || EndsWith(path, ".json")) return "galaxy";
  if (EndsWith(path, ".jsonl") || EndsWith(path, ".trace")) return "trace";
  return "cuneiform";
}

struct CliWorkflow {
  std::string path;
  std::string queue;  // service mode: the queue it is submitted to
  int priority = 0;   // preemption priority of its task containers
  /// Per-file language override (--cwl); wins over --language / guessing.
  std::string language;
};

struct CliOptions {
  std::vector<CliWorkflow> workflows;
  std::string language;
  std::string policy = "data-aware";
  ChefAttributes attributes;
  std::vector<std::pair<std::string, int64_t>> inputs;
  std::map<std::string, std::string> galaxy_inputs;
  int vcores = 1;
  double memory_mb = 1024.0;
  bool tailor = false;
  uint64_t seed = 42;
  std::string trace_out;
  std::string chrome_trace_out;
  std::string metrics_out;
  bool verbose = false;
  // Service mode.
  bool service = false;
  std::vector<ServiceQueueOptions> queue_configs;
  std::string faults;
  bool footprint_admission = false;
  // Elastic membership.
  double spot_fraction = -1.0;
  double revoke_warning_s = -1.0;

  const std::string& workflow_path() const { return workflows[0].path; }
};

Result<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions options;
  auto need_value = [&](int& i, const char* flag) -> Result<std::string> {
    if (i + 1 >= argc) {
      return Status::InvalidArgument(StrFormat("%s expects a value", flag));
    }
    return std::string(argv[++i]);
  };
  auto split_kv = [](const std::string& kv,
                     const char* flag) -> Result<std::pair<std::string,
                                                           std::string>> {
    size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("%s expects KEY=VALUE, got '%s'", flag, kv.c_str()));
    }
    return std::make_pair(kv.substr(0, eq), kv.substr(eq + 1));
  };
  std::string current_queue = "default";
  int current_priority = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (const AttributeAlias* alias = FindAlias(arg)) {
      if (alias->value != nullptr) {
        options.attributes[alias->key] = alias->value;
      } else {
        HIWAY_ASSIGN_OR_RETURN(options.attributes[alias->key],
                               need_value(i, alias->flag));
      }
    } else if (arg == "--workflow") {
      HIWAY_ASSIGN_OR_RETURN(std::string path, need_value(i, "--workflow"));
      options.workflows.push_back(CliWorkflow{std::move(path), current_queue,
                                              current_priority, ""});
    } else if (arg == "--cwl") {
      HIWAY_ASSIGN_OR_RETURN(std::string path, need_value(i, "--cwl"));
      options.workflows.push_back(CliWorkflow{std::move(path), current_queue,
                                              current_priority, "cwl"});
    } else if (arg == "--service") {
      options.service = true;
    } else if (arg == "--priority") {
      HIWAY_ASSIGN_OR_RETURN(std::string v, need_value(i, "--priority"));
      HIWAY_ASSIGN_OR_RETURN(int64_t n, ParseInt64(v));
      if (n < std::numeric_limits<int>::min() ||
          n > std::numeric_limits<int>::max()) {
        return Status::InvalidArgument(
            "--priority expects a 32-bit integer, got '" + v + "'");
      }
      current_priority = static_cast<int>(n);
    } else if (arg == "--queue") {
      HIWAY_ASSIGN_OR_RETURN(current_queue, need_value(i, "--queue"));
    } else if (arg == "--queue-config") {
      HIWAY_ASSIGN_OR_RETURN(std::string kv, need_value(i, "--queue-config"));
      HIWAY_ASSIGN_OR_RETURN(auto pair, split_kv(kv, "--queue-config"));
      std::vector<std::string> fields = StrSplit(pair.second, ',');
      if (fields.size() != 4) {
        return Status::InvalidArgument(
            "--queue-config expects NAME=GUARANTEED,MAX,AMS,BACKLOG, got '" +
            kv + "'");
      }
      ServiceQueueOptions q;
      q.rm.name = pair.first;
      HIWAY_ASSIGN_OR_RETURN(q.rm.guaranteed_share, ParseDouble(fields[0]));
      HIWAY_ASSIGN_OR_RETURN(q.rm.max_share, ParseDouble(fields[1]));
      HIWAY_ASSIGN_OR_RETURN(int64_t ams, ParseInt64(fields[2]));
      HIWAY_ASSIGN_OR_RETURN(int64_t backlog, ParseInt64(fields[3]));
      q.max_concurrent_ams = static_cast<int>(ams);
      q.max_backlog = static_cast<int>(backlog);
      options.queue_configs.push_back(std::move(q));
    } else if (arg == "--faults") {
      HIWAY_ASSIGN_OR_RETURN(options.faults, need_value(i, "--faults"));
      // Surface grammar errors at parse time, not mid-run.
      HIWAY_RETURN_IF_ERROR(ParseFaultSpecs(options.faults).status());
    } else if (arg == "--spot-fraction") {
      HIWAY_ASSIGN_OR_RETURN(std::string v, need_value(i, "--spot-fraction"));
      HIWAY_ASSIGN_OR_RETURN(options.spot_fraction, ParseDouble(v));
      if (options.spot_fraction <= 0.0 || options.spot_fraction > 1.0) {
        return Status::InvalidArgument(
            "--spot-fraction expects a fraction in (0, 1], got '" + v + "'");
      }
    } else if (arg == "--revoke-warning-s") {
      HIWAY_ASSIGN_OR_RETURN(std::string v,
                             need_value(i, "--revoke-warning-s"));
      HIWAY_ASSIGN_OR_RETURN(options.revoke_warning_s, ParseDouble(v));
      if (options.revoke_warning_s < 0.0) {
        return Status::InvalidArgument(
            "--revoke-warning-s expects a non-negative duration, got '" + v +
            "'");
      }
    } else if (arg == "--language") {
      HIWAY_ASSIGN_OR_RETURN(options.language, need_value(i, "--language"));
    } else if (arg == "--policy") {
      HIWAY_ASSIGN_OR_RETURN(options.policy, need_value(i, "--policy"));
    } else if (arg == "-a") {
      HIWAY_ASSIGN_OR_RETURN(std::string kv, need_value(i, "-a"));
      HIWAY_ASSIGN_OR_RETURN(auto pair, split_kv(kv, "-a"));
      options.attributes[pair.first] = pair.second;
    } else if (arg == "--input") {
      HIWAY_ASSIGN_OR_RETURN(std::string kv, need_value(i, "--input"));
      HIWAY_ASSIGN_OR_RETURN(auto pair, split_kv(kv, "--input"));
      HIWAY_ASSIGN_OR_RETURN(int64_t size, ParseSize(pair.second));
      options.inputs.emplace_back(pair.first, size);
    } else if (arg == "--galaxy-input") {
      HIWAY_ASSIGN_OR_RETURN(std::string kv, need_value(i, "--galaxy-input"));
      HIWAY_ASSIGN_OR_RETURN(auto pair, split_kv(kv, "--galaxy-input"));
      options.galaxy_inputs[pair.first] = pair.second;
    } else if (arg == "--vcores") {
      HIWAY_ASSIGN_OR_RETURN(std::string v, need_value(i, "--vcores"));
      HIWAY_ASSIGN_OR_RETURN(int64_t n, ParseInt64(v));
      if (n < 1 || n > std::numeric_limits<int>::max()) {
        return Status::InvalidArgument(
            "--vcores expects a positive integer, got '" + v + "'");
      }
      options.vcores = static_cast<int>(n);
    } else if (arg == "--memory") {
      HIWAY_ASSIGN_OR_RETURN(std::string v, need_value(i, "--memory"));
      HIWAY_ASSIGN_OR_RETURN(options.memory_mb, ParseDouble(v));
      if (!std::isfinite(options.memory_mb) || options.memory_mb <= 0.0) {
        return Status::InvalidArgument(
            "--memory expects a positive size in MB, got '" + v + "'");
      }
    } else if (arg == "--tailor-containers") {
      options.tailor = true;
    } else if (arg == "--footprint-admission") {
      options.footprint_admission = true;
    } else if (arg == "--seed") {
      HIWAY_ASSIGN_OR_RETURN(std::string v, need_value(i, "--seed"));
      HIWAY_ASSIGN_OR_RETURN(int64_t n, ParseInt64(v));
      options.seed = static_cast<uint64_t>(n);
    } else if (arg == "--trace-out") {
      HIWAY_ASSIGN_OR_RETURN(options.trace_out, need_value(i, "--trace-out"));
    } else if (arg == "--chrome-trace-out") {
      HIWAY_ASSIGN_OR_RETURN(options.chrome_trace_out,
                             need_value(i, "--chrome-trace-out"));
    } else if (arg == "--metrics-out") {
      HIWAY_ASSIGN_OR_RETURN(options.metrics_out,
                             need_value(i, "--metrics-out"));
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      return Status::FailedPrecondition("help");
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  if (options.workflows.empty()) {
    return Status::InvalidArgument("--workflow is required");
  }
  if (options.workflows.size() > 1 && !options.service) {
    return Status::InvalidArgument(
        "multiple --workflow flags require --service");
  }
  if (!options.faults.empty() && !options.service) {
    return Status::InvalidArgument(
        "--faults requires --service (failover is a service-mode feature)");
  }
  if (options.footprint_admission && !options.service) {
    return Status::InvalidArgument(
        "--footprint-admission requires --service (admission gates the "
        "service backlog)");
  }
  return options;
}

/// Resolution order: per-file override (--cwl) > --language > extension.
std::string LanguageForFile(const CliOptions& cli, const CliWorkflow& wf) {
  if (!wf.language.empty()) return wf.language;
  if (!cli.language.empty()) return cli.language;
  return GuessLanguage(wf.path);
}

/// Reads a workflow document, builds its source, and stages any inputs
/// the document itself declares (DAX / trace / CWL) that are not yet in
/// DFS.
Result<std::unique_ptr<WorkflowSource>> MakeSourceForFile(
    Deployment* d, const CliOptions& cli, const CliWorkflow& wf) {
  const std::string& path = wf.path;
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot read workflow file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  StagedWorkflow staged;
  staged.language = LanguageForFile(cli, wf);
  staged.document = buffer.str();
  staged.galaxy_inputs = cli.galaxy_inputs;
  HiWayClient client(d);
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<WorkflowSource> source,
                         client.MakeSource(staged));

  if (auto* static_source = dynamic_cast<StaticWorkflowSource*>(source.get())) {
    for (const auto& [file, size] : static_source->required_inputs()) {
      if (!d->dfs->Exists(file)) {
        HIWAY_RETURN_IF_ERROR(
            d->dfs->IngestFile(file, std::max<int64_t>(size, 1)));
      }
    }
  }
  return source;
}

Result<std::unique_ptr<Deployment>> ConvergeDeployment(
    const CliOptions& cli) {
  Karamel karamel;
  for (const auto& [k, v] : cli.attributes) karamel.SetAttribute(k, v);
  karamel.SetAttribute("seed", StrFormat("%llu",
                                         (unsigned long long)cli.seed));
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, karamel.Converge());
  if (!cli.chrome_trace_out.empty() || !cli.metrics_out.empty()) {
    d->tracer.set_enabled(true);
  }
  for (const auto& [path, size] : cli.inputs) {
    HIWAY_RETURN_IF_ERROR(d->dfs->IngestFile(path, size));
  }
  return d;
}

/// Prints the cross-submission cache summary (no-op when neither cache
/// is deployed).
void PrintCacheSummary(const Deployment* d) {
  if (d->result_cache != nullptr) {
    ResultCacheStats s = d->result_cache->stats();
    int64_t lookups = s.hits + s.misses;
    std::printf("result cache: %lld hit(s) / %lld miss(es) (ratio %.2f), "
                "%lld entrie(s), saved %s compute\n",
                static_cast<long long>(s.hits),
                static_cast<long long>(s.misses),
                lookups > 0 ? static_cast<double>(s.hits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                static_cast<long long>(d->result_cache->size()),
                HumanDuration(s.saved_compute_s).c_str());
    if (s.tenant_denied > 0 || s.stale_evictions > 0 ||
        s.verify_mismatches > 0) {
      std::printf("result cache: %lld cross-tenant denial(s), "
                  "%lld stale eviction(s), %lld verify mismatch(es)\n",
                  static_cast<long long>(s.tenant_denied),
                  static_cast<long long>(s.stale_evictions),
                  static_cast<long long>(s.verify_mismatches));
    }
  }
  if (d->staging_cache != nullptr) {
    StagingCacheStats s = d->staging_cache->stats();
    std::printf("staging cache: %lld hit(s) / %lld miss(es), %s served "
                "locally, %s resident, %lld eviction(s)\n",
                static_cast<long long>(s.hits),
                static_cast<long long>(s.misses),
                HumanBytes(static_cast<double>(s.bytes_served)).c_str(),
                HumanBytes(static_cast<double>(
                               d->staging_cache->TotalBytes()))
                    .c_str(),
                static_cast<long long>(s.evictions));
  }
}

/// Prints DFS capacity / GC accounting (no-op without a capacity limit
/// or collector — see docs/storage-model.md).
void PrintStorageSummary(const Deployment* d) {
  if (d->gc == nullptr && d->dfs->options().capacity_bytes <= 0) return;
  const DfsCounters& c = d->dfs->counters();
  std::printf("storage: peak footprint %s raw",
              HumanBytes(static_cast<double>(c.peak_footprint)).c_str());
  if (d->dfs->options().capacity_bytes > 0) {
    std::printf(" of %s capacity",
                HumanBytes(static_cast<double>(
                               d->dfs->options().capacity_bytes))
                    .c_str());
  }
  std::printf(", %lld file(s) / %s deleted",
              static_cast<long long>(c.files_deleted),
              HumanBytes(static_cast<double>(c.bytes_deleted)).c_str());
  if (c.capacity_rejections > 0) {
    std::printf(", %lld capacity rejection(s)",
                static_cast<long long>(c.capacity_rejections));
  }
  std::printf("\n");
}

/// Drains the execution tracer into the requested exporter files and
/// prints the critical-path attribution (no-op when neither flag is set).
Status WriteObsOutputs(Deployment* d, const CliOptions& cli) {
  if (cli.chrome_trace_out.empty() && cli.metrics_out.empty()) {
    return Status::OK();
  }
  std::vector<TraceEvent> events = d->tracer.Drain();
  if (!cli.chrome_trace_out.empty()) {
    std::ofstream out(cli.chrome_trace_out);
    if (!out) {
      return Status::IoError("cannot write chrome trace file: " +
                             cli.chrome_trace_out);
    }
    out << ExportChromeTrace(events);
    std::printf("execution trace: %s (load at https://ui.perfetto.dev)\n",
                cli.chrome_trace_out.c_str());
  }
  if (!cli.metrics_out.empty()) {
    std::ofstream out(cli.metrics_out);
    if (!out) {
      return Status::IoError("cannot write metrics file: " + cli.metrics_out);
    }
    out << ExportPrometheusText(events);
    std::printf("metrics snapshot: %s\n", cli.metrics_out.c_str());
  }
  TraceAnalyzer analyzer(std::move(events));
  std::printf("%s\n", analyzer.CriticalPath().Summary().c_str());
  return Status::OK();
}

Result<int> RunService(const CliOptions& cli) {
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                         ConvergeDeployment(cli));

  WorkflowServiceOptions service_options;
  service_options.rm_scheduler = ToString(d->rm->policy());
  service_options.queues = cli.queue_configs;
  service_options.base_seed = cli.seed;
  service_options.default_policy = cli.policy;
  service_options.footprint_admission = cli.footprint_admission;
  // Queues referenced by --queue but never configured get the defaults.
  for (const CliWorkflow& wf : cli.workflows) {
    bool known = false;
    for (const ServiceQueueOptions& q : service_options.queues) {
      if (q.rm.name == wf.queue) known = true;
    }
    if (!known) {
      ServiceQueueOptions q;
      q.rm.name = wf.queue;
      service_options.queues.push_back(std::move(q));
    }
  }

  // Build every source before creating the service: MakeSourceForFile
  // stages document-declared inputs, and footprint admission budgets
  // against the DFS bytes present at service creation — the baseline
  // must include those inputs (docs/storage-model.md).
  std::vector<std::unique_ptr<WorkflowSource>> sources;
  sources.reserve(cli.workflows.size());
  for (const CliWorkflow& wf : cli.workflows) {
    HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<WorkflowSource> source,
                           MakeSourceForFile(d.get(), cli, wf));
    sources.push_back(std::move(source));
  }

  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<WorkflowService> service,
                         WorkflowService::Create(d.get(), service_options));

  FaultInjector injector(&d->engine, cli.seed);
  if (cli.revoke_warning_s >= 0.0) {
    injector.SetDefaultRevokeWarning(cli.revoke_warning_s);
  }
  if (cli.spot_fraction > 0.0) service->SetSpotFraction(cli.spot_fraction);
  if (!cli.faults.empty()) {
    service->InstallFaultHandlers(&injector);
    HIWAY_RETURN_IF_ERROR(injector.ArmSpec(cli.faults));
  }

  std::printf(
      "hiway: service mode, %zu workflow(s), rm scheduler '%s', %d nodes\n",
      cli.workflows.size(), ToString(d->rm->policy()),
      d->cluster->num_nodes());
  if (!injector.armed().empty()) {
    std::printf("hiway: faults armed: %s\n", cli.faults.c_str());
  }
  HiWayOptions hiway;
  hiway.container_vcores = cli.vcores;
  hiway.container_memory_mb = cli.memory_mb;
  hiway.tailor_containers = cli.tailor;
  int rejected = 0;
  for (size_t w = 0; w < cli.workflows.size(); ++w) {
    const CliWorkflow& wf = cli.workflows[w];
    std::unique_ptr<WorkflowSource> source = std::move(sources[w]);
    SubmissionOptions sub;
    sub.queue = wf.queue;
    sub.hiway = hiway;
    sub.hiway.container_priority = wf.priority;
    // A replacement AM attempt rebuilds its source from the same file,
    // so CLI submissions survive AM failures like staged ones do.
    sub.source_factory = [d = d.get(), &cli, wf] {
      return MakeSourceForFile(d, cli, wf);
    };
    auto id = service->Submit(wf.path, std::move(source), sub);
    if (!id.ok()) {
      if (!id.status().IsResourceExhausted()) return id.status();
      // Admission backpressure rejects this submission, not the burst.
      ++rejected;
      std::printf("  REJECTED '%s' -> queue '%s': %s\n", wf.path.c_str(),
                  wf.queue.c_str(), id.status().ToString().c_str());
      continue;
    }
    std::printf("  submitted #%lld '%s' -> queue '%s'\n",
                static_cast<long long>(*id), wf.path.c_str(),
                wf.queue.c_str());
  }
  HIWAY_RETURN_IF_ERROR(service->RunToCompletion());

  int exit_code = rejected > 0 ? 1 : 0;
  std::printf("\nsubmissions:\n");
  for (const SubmissionRecord& rec : service->Records()) {
    if (rec.state == SubmissionState::kSucceeded) {
      std::printf("  #%lld %-28s %-9s queue=%s wait=%s makespan=%s "
                  "tasks=%d%s\n",
                  static_cast<long long>(rec.id), rec.name.c_str(),
                  ToString(rec.state), rec.queue.c_str(),
                  HumanDuration(rec.QueueWait()).c_str(),
                  HumanDuration(rec.report.Makespan()).c_str(),
                  rec.report.tasks_completed,
                  rec.deadline_missed ? " DEADLINE-MISSED" : "");
    } else {
      exit_code = 1;
      std::printf("  #%lld %-28s %-9s queue=%s (%s)\n",
                  static_cast<long long>(rec.id), rec.name.c_str(),
                  ToString(rec.state), rec.queue.c_str(),
                  rec.report.status.ToString().c_str());
    }
  }
  std::printf("\nqueues (RM scheduler '%s'):\n",
              ToString(d->rm->policy()));
  for (const QueueLoadSummary& q : SummarizeQueues(*d->rm)) {
    std::printf("  %-12s apps=%d allocations=%lld mean-wait=%s "
                "p95-wait=%s\n",
                q.queue.c_str(), q.applications,
                static_cast<long long>(q.counters.allocations),
                HumanDuration(q.mean_wait_s).c_str(),
                HumanDuration(q.p95_wait_s).c_str());
    if (q.restoration_episodes > 0 || q.counters.preempted_containers > 0) {
      std::printf("  %-12s   starved=%s episodes=%d p95-restore=%s "
                  "preempted=%lld wasted=%.2f\n",
                  "", HumanDuration(q.time_under_guarantee_s).c_str(),
                  q.restoration_episodes,
                  HumanDuration(q.p95_restoration_s).c_str(),
                  static_cast<long long>(q.counters.preempted_containers),
                  q.wasted_work_ratio);
    }
  }
  std::printf("time-averaged Jain fairness: %.3f\n",
              d->rm->TimeAveragedFairness());
  PrintCacheSummary(d.get());
  PrintStorageSummary(d.get());
  if (cli.footprint_admission && service->footprint_budget_bytes() > 0) {
    std::printf("footprint admission: budget %s raw\n",
                HumanBytes(static_cast<double>(
                               service->footprint_budget_bytes()))
                    .c_str());
  }
  if (d->elastic->options().policy.enabled ||
      d->elastic->stats().nodes_revoked > 0) {
    const ElasticStats& e = d->elastic->stats();
    std::printf("elastic ('%s'): %d scale-out(s) (+%d node(s)), "
                "%d scale-in(s), %d decommission(s), %d revocation(s), "
                "%.2f node-hour(s)\n",
                d->elastic->options().policy.name.c_str(),
                e.scale_out_actions, e.nodes_added, e.scale_in_actions,
                e.nodes_decommissioned, e.nodes_revoked,
                e.node_seconds / 3600.0);
  }
  if (!injector.armed().empty()) {
    const FaultCounters& f = injector.counters();
    std::printf("faults injected: %d node kill(s), %d am crash(es), "
                "%d container kill(s), %d spot revocation(s), "
                "%lld read fault(s)\n",
                f.node_kills, f.am_crashes, f.container_kills,
                f.spot_revocations, static_cast<long long>(f.read_faults));
    int failovers = 0;
    for (const SubmissionRecord& rec : service->Records()) {
      failovers += rec.am_failures;
    }
    std::printf("am failovers survived: %d\n", failovers);
  }
  if (!cli.trace_out.empty()) {
    std::ofstream out(cli.trace_out);
    if (!out) {
      return Status::IoError("cannot write trace file: " + cli.trace_out);
    }
    out << SerializeTrace(d->provenance->Events());
    std::printf("trace: %s\n", cli.trace_out.c_str());
  }
  HIWAY_RETURN_IF_ERROR(WriteObsOutputs(d.get(), cli));
  return exit_code;
}

Result<int> Run(const CliOptions& cli) {
  if (cli.service) return RunService(cli);

  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                         ConvergeDeployment(cli));
  HiWayClient client(d.get());
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<WorkflowSource> source,
                         MakeSourceForFile(d.get(), cli, cli.workflows[0]));

  HiWayOptions options;
  options.container_vcores = cli.vcores;
  options.container_memory_mb = cli.memory_mb;
  options.tailor_containers = cli.tailor;
  options.seed = cli.seed;

  std::string language = LanguageForFile(cli, cli.workflows[0]);
  std::printf("hiway: executing '%s' (%s) under %s scheduling on %d nodes\n",
              cli.workflow_path().c_str(), language.c_str(),
              cli.policy.c_str(), d->cluster->num_nodes());
  auto report = client.RunSource(source.get(), cli.policy, options);
  HIWAY_RETURN_IF_ERROR(report.status());
  if (cli.verbose) {
    for (const ProvenanceEvent& ev : d->provenance->Events()) {
      if (ev.type == ProvenanceEventType::kTaskEnd) {
        std::printf("  t=%10.1fs  %-20s %-10s %s (%.1fs)\n", ev.timestamp,
                    ev.signature.c_str(), ev.node_name.c_str(),
                    ev.success ? "ok" : "FAILED", ev.duration);
      }
    }
  }
  if (!report->status.ok()) {
    std::fprintf(stderr, "workflow failed: %s\n",
                 report->status.ToString().c_str());
    return 1;
  }
  std::printf(
      "finished: %d task(s) in %s virtual time (%d attempt(s), %d failed)\n",
      report->tasks_completed, HumanDuration(report->Makespan()).c_str(),
      report->task_attempts, report->failed_attempts);
  if (report->tasks_cached > 0) {
    std::printf("  %d task(s) served from the result cache\n",
                report->tasks_cached);
  }
  if (d->gc != nullptr) {
    std::printf("  gc: %lld file(s) / %s collected, peak live %s logical\n",
                static_cast<long long>(report->gc_files_collected),
                HumanBytes(static_cast<double>(report->gc_bytes_collected))
                    .c_str(),
                HumanBytes(static_cast<double>(report->peak_footprint_bytes))
                    .c_str());
  }
  PrintCacheSummary(d.get());
  PrintStorageSummary(d.get());
  for (const std::string& target : source->Targets()) {
    auto info = d->dfs->Stat(target);
    std::printf("  output: %s (%s)\n", target.c_str(),
                info.ok()
                    ? HumanBytes(static_cast<double>(info->size_bytes)).c_str()
                    : "missing");
  }
  if (!cli.trace_out.empty()) {
    std::ofstream out(cli.trace_out);
    if (!out) {
      return Status::IoError("cannot write trace file: " + cli.trace_out);
    }
    out << SerializeTrace(d->provenance->Events());
    std::printf("  trace:  %s (re-executable with --language trace)\n",
                cli.trace_out.c_str());
  }
  HIWAY_RETURN_IF_ERROR(WriteObsOutputs(d.get(), cli));
  return 0;
}

}  // namespace
}  // namespace hiway

int main(int argc, char** argv) {
  auto options = hiway::ParseArgs(argc, argv);
  if (!options.ok()) {
    if (options.status().IsFailedPrecondition()) {  // --help
      hiway::PrintUsage();
      return 0;
    }
    std::fprintf(stderr, "hiway: %s\n\n",
                 options.status().ToString().c_str());
    hiway::PrintUsage();
    return 2;
  }
  auto result = hiway::Run(*options);
  if (!result.ok()) {
    std::fprintf(stderr, "hiway: %s\n", result.status().ToString().c_str());
    return 1;
  }
  return *result;
}
