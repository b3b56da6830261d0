#include "src/infra/karamel.h"

#include <cmath>
#include <cstdint>
#include <deque>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/provdb/provdb.h"
#include "src/tools/standard_tools.h"
#include "src/workloads/workloads.h"

namespace hiway {

namespace {

using enum AttributeKind;

constexpr double kTiBInMiB = 0x1p20;

/// The only declaration of each attribute: recipes read values by key and
/// `hiway --help` prints this table.
constexpr AttributeSpec kAttributes[] = {
    // hadoop::install
    {"cluster/workers", kInteger, "4", "worker nodes", 1, 1e6},
    {"cluster/cores", kInteger, "2", "vcores per worker", 1, 4096},
    {"cluster/memory_mb", kNumber, "7680", "MB of memory per worker", 1, 1e9},
    {"cluster/disk_mbps", kNumber, "150", "disk MB/s per worker", 1e-3, 1e9},
    {"cluster/nic_mbps", kNumber, "125", "NIC MB/s per worker", 1e-3, 1e9},
    {"cluster/switch_mbps", kNumber, "1250", "switch MB/s", 1e-3, 1e9},
    {"cluster/ebs_mbps", kNumber, "0", "EBS volume MB/s (0 = none)", 0, 1e9},
    {"cluster/s3_mbps", kNumber, "0", "S3 MB/s (0 = none)", 0, 1e9},
    {"dfs/replication", kInteger, "3", "HDFS replicas per block", 1, 64},
    {"dfs/block_mb", kInteger, "128", "HDFS block size, MiB", 1, kTiBInMiB},
    {"dfs/capacity_mb", kInteger, "0",
     "raw replica-weighted DFS capacity, MiB (0 = unlimited)", 0, 0x1p40},
    {"dfs/first_datanode", kInteger, "0",
     "lowest node id that stores blocks (masters below it)", 0, INT32_MAX},
    {"seed", kInteger, "7", "seed of DFS placement and cache verification",
     -0x1p63, 0x1p63},
    {"yarn/allocation_delay_s", kNumber, "0.5",
     "batching window before an allocation pass, s", 0, 1e9},
    {"yarn/scheduler", kText, "fifo", "RM policy: fifo, capacity or fair"},
    {"yarn/preemption", kSwitch, "off", "preempt for starved queues"},
    {"yarn/preemption_grace_s", kNumber, "5",
     "starvation grace before the RM preempts, s", 0, 1e9},
    {"yarn/max_preempt_per_round", kInteger, "2",
     "containers preempted per allocation pass, at most", 0, 1e6},
    {"obs/tracing", kSwitch, "off", "enable the execution tracer"},
    // hiway::install
    {"hiway/prov_backend", kText, "memory", "provenance: memory or provdb"},
    {"hiway/prov_dir", kText, "hiway-provenance", "provdb segment directory"},
    {"hiway/cache_results", kSwitch, "off", "cluster-wide result cache"},
    {"hiway/cache_max_entries", kInteger, "0",
     "LRU bound on result-cache entries (0 = unbounded)", 0, 0x1p40},
    {"hiway/cache_verify", kSwitch, "off", "spot-check cache hits in DFS"},
    {"hiway/cache_verify_rate", kNumber, "0.25",
     "fraction of result-cache hits verified", 0, 1},
    {"hiway/cache_dir", kText, "", "result-cache index dir (empty = none)"},
    {"hiway/cache_staging_mb", kInteger, "-1",
     "per-node staging cache, MiB (-1 = none, 0 = unbounded)", -1,
     kTiBInMiB},
    {"hiway/gc", kSwitch, "off", "collect intermediates after last use"},
    // hiway::install: the membership plane (src/elastic)
    {"elastic/autoscaler", kText, "off",
     "off, reactive, aggressive or conservative"},
    {"elastic/min_nodes", kInteger, "1", "autoscaler floor", 0, 1e6},
    {"elastic/max_nodes", kInteger, "0",
     "autoscaler ceiling (0 = the converged size)", 0, 1e6},
    {"elastic/join_delay_s", kNumber, "5", "scale-out join delay, s", 0, 1e9},
    // workflow::* stagers
    {"snv/chunks", kInteger, "8", "SNV: read chunks", 1, 1e5},
    {"snv/chunk_mb", kInteger, "1024", "SNV: MiB per chunk", 1, kTiBInMiB},
    {"snv/cram", kSwitch, "off", "SNV: CRAM-compressed reads"},
    {"snv/ingest", kText, "dfs", "SNV inputs: dfs, s3 or none"},
    {"rnaseq/replicates", kInteger, "3", "TRAPLINE: replicates", 1, 1e4},
    {"rnaseq/sample_mb", kInteger, "1740", "TRAPLINE: MiB per sample", 1,
     kTiBInMiB},
    {"montage/images", kInteger, "11", "Montage: input images", 1, 1e4},
    {"montage/image_mb", kInteger, "4", "Montage: MiB per image", 1,
     kTiBInMiB},
    {"kmeans/points_mb", kInteger, "64", "k-means: MiB of points", 1,
     kTiBInMiB},
    {"kmeans/converge_after", kInteger, "5", "k-means: iterations", 1, 1e6},
};

const AttributeSpec* FindAttribute(std::string_view key) {
  for (const AttributeSpec& spec : kAttributes) {
    if (key == spec.key) return &spec;
  }
  return nullptr;
}

Result<int64_t> ParseInteger(const AttributeSpec& spec,
                             std::string_view value) {
  auto parsed = ParseInt64(value);
  if (!parsed.ok()) {
    return Status::InvalidArgument(
        StrFormat("attribute %s: '%.*s' is not an integer", spec.key,
                  static_cast<int>(value.size()), value.data()));
  }
  if (*parsed < spec.min || *parsed > spec.max) {
    return Status::InvalidArgument(StrFormat(
        "attribute %s: %lld is outside the allowed range [%.0f, %.0f]",
        spec.key, static_cast<long long>(*parsed), spec.min, spec.max));
  }
  return *parsed;
}

Result<double> ParseNumber(const AttributeSpec& spec, std::string_view value) {
  auto parsed = ParseDouble(value);
  if (!parsed.ok()) {
    return Status::InvalidArgument(
        StrFormat("attribute %s: '%.*s' is not a number", spec.key,
                  static_cast<int>(value.size()), value.data()));
  }
  if (!std::isfinite(*parsed) || *parsed < spec.min || *parsed > spec.max) {
    return Status::InvalidArgument(StrFormat(
        "attribute %s: %.*s is outside the allowed range [%g, %g]", spec.key,
        static_cast<int>(value.size()), value.data(), spec.min, spec.max));
  }
  return *parsed;
}

Result<bool> ParseSwitch(const AttributeSpec& spec, std::string_view value) {
  if (value == "on" || value == "true" || value == "1") return true;
  if (value == "off" || value == "false" || value == "0") return false;
  return Status::InvalidArgument(StrFormat(
      "attribute %s: '%.*s' is not a switch (on|off|true|false|1|0)",
      spec.key, static_cast<int>(value.size()), value.data()));
}

Status CheckAttribute(const AttributeSpec& spec, std::string_view value) {
  switch (spec.kind) {
    case kInteger:
      return ParseInteger(spec, value).status();
    case kNumber:
      return ParseNumber(spec, value).status();
    case kSwitch:
      return ParseSwitch(spec, value).status();
    case kText:
      break;
  }
  return Status::OK();
}

/// The row of `key` and its value: the set one, or the default. Converge
/// has checked every set value, so the typed readers below cannot fail;
/// reading an undeclared key, or as another kind, is a programming error.
std::pair<const AttributeSpec*, std::string_view> Lookup(
    const ChefAttributes& attrs, std::string_view key, AttributeKind kind) {
  const AttributeSpec* spec = FindAttribute(key);
  HIWAY_CHECK(spec != nullptr && spec->kind == kind);
  auto it = attrs.find(spec->key);
  return {spec, it == attrs.end() ? std::string_view(spec->default_value)
                                  : std::string_view(it->second)};
}

int64_t AttrInt(const ChefAttributes& attrs, std::string_view key) {
  auto [spec, value] = Lookup(attrs, key, kInteger);
  return ParseInteger(*spec, value).value();
}

double AttrNumber(const ChefAttributes& attrs, std::string_view key) {
  auto [spec, value] = Lookup(attrs, key, kNumber);
  return ParseNumber(*spec, value).value();
}

bool AttrSwitch(const ChefAttributes& attrs, std::string_view key) {
  auto [spec, value] = Lookup(attrs, key, kSwitch);
  return ParseSwitch(*spec, value).value();
}

std::string AttrText(const ChefAttributes& attrs, std::string_view key) {
  return std::string(Lookup(attrs, key, kText).second);
}

/// The worker hardware the cluster/* attributes describe; elastic joiners
/// are built from it too.
NodeSpec WorkerNode(const ChefAttributes& attrs) {
  NodeSpec node;
  node.cores = static_cast<int>(AttrInt(attrs, "cluster/cores"));
  node.memory_mb = AttrNumber(attrs, "cluster/memory_mb");
  node.disk_bw_mbps = AttrNumber(attrs, "cluster/disk_mbps");
  node.nic_bw_mbps = AttrNumber(attrs, "cluster/nic_mbps");
  return node;
}

}  // namespace

std::span<const AttributeSpec> AttributeTable() { return kAttributes; }

std::string AttributeRange(const AttributeSpec& spec) {
  switch (spec.kind) {
    case kInteger:
      if (spec.max >= 0x1p63) return "any integer";
      return StrFormat("[%.0f, %.0f]", spec.min, spec.max);
    case kNumber:
      return StrFormat("[%g, %g]", spec.min, spec.max);
    case kSwitch:
      return "switch";
    case kText:
      break;
  }
  return "text";
}

Result<std::unique_ptr<Deployment>> Karamel::Converge() {
  for (const auto& [key, value] : attributes_) {
    const AttributeSpec* spec = FindAttribute(key);
    if (spec == nullptr) {
      return Status::InvalidArgument("unknown attribute " + key);
    }
    HIWAY_RETURN_IF_ERROR(CheckAttribute(*spec, value));
  }
  // Kahn's algorithm over recipe dependencies.
  std::map<std::string, const Recipe*> by_name;
  for (const Recipe& r : recipes_) {
    if (by_name.count(r.name) > 0) {
      return Status::InvalidArgument("duplicate recipe: " + r.name);
    }
    by_name[r.name] = &r;
  }
  std::map<std::string, int> in_degree;
  std::map<std::string, std::vector<std::string>> dependents;
  for (const Recipe& r : recipes_) {
    in_degree[r.name] += 0;
    for (const std::string& dep : r.dependencies) {
      if (by_name.count(dep) == 0) {
        return Status::InvalidArgument("recipe '" + r.name +
                                       "' depends on unknown '" + dep + "'");
      }
      ++in_degree[r.name];
      dependents[dep].push_back(r.name);
    }
  }
  std::deque<std::string> frontier;
  for (const Recipe& r : recipes_) {
    if (in_degree[r.name] == 0) frontier.push_back(r.name);
  }
  std::vector<const Recipe*> order;
  while (!frontier.empty()) {
    std::string name = frontier.front();
    frontier.pop_front();
    order.push_back(by_name[name]);
    for (const std::string& d : dependents[name]) {
      if (--in_degree[d] == 0) frontier.push_back(d);
    }
  }
  if (order.size() != recipes_.size()) {
    return Status::InvalidArgument("recipe dependency cycle");
  }
  auto deployment = std::make_unique<Deployment>();
  for (const Recipe* r : order) {
    Status st = r->converge(attributes_, deployment.get());
    if (!st.ok()) {
      return st.WithContext("recipe '" + r->name + "' failed to converge");
    }
  }
  return deployment;
}

Recipe HadoopInstallRecipe() {
  Recipe r;
  r.name = "hadoop::install";
  r.converge = [](const ChefAttributes& attrs, Deployment* d) -> Status {
    ClusterSpec spec = ClusterSpec::Uniform(
        static_cast<int>(AttrInt(attrs, "cluster/workers")),
        WorkerNode(attrs), AttrNumber(attrs, "cluster/switch_mbps"));
    spec.ebs_bw_mbps = AttrNumber(attrs, "cluster/ebs_mbps");
    spec.s3_bw_mbps = AttrNumber(attrs, "cluster/s3_mbps");
    d->cluster = std::make_unique<Cluster>(&d->engine, &d->net, spec);
    DfsOptions dfs_opts;
    dfs_opts.replication = static_cast<int>(AttrInt(attrs, "dfs/replication"));
    dfs_opts.block_size_bytes = AttrInt(attrs, "dfs/block_mb") << 20;
    dfs_opts.capacity_bytes = AttrInt(attrs, "dfs/capacity_mb") << 20;
    dfs_opts.first_datanode =
        static_cast<NodeId>(AttrInt(attrs, "dfs/first_datanode"));
    dfs_opts.seed = static_cast<uint64_t>(AttrInt(attrs, "seed"));
    d->dfs = std::make_unique<Dfs>(d->cluster.get(), dfs_opts);
    YarnOptions yarn_opts;
    yarn_opts.allocation_delay_s = AttrNumber(attrs, "yarn/allocation_delay_s");
    auto policy = ParseRmPolicy(AttrText(attrs, "yarn/scheduler"));
    if (!policy.ok()) {
      return Status::InvalidArgument("attribute yarn/scheduler: " +
                                     policy.status().message());
    }
    yarn_opts.scheduler = *policy;
    yarn_opts.preemption = AttrSwitch(attrs, "yarn/preemption");
    yarn_opts.preemption_grace_s = AttrNumber(attrs, "yarn/preemption_grace_s");
    yarn_opts.max_preempt_per_round =
        static_cast<int>(AttrInt(attrs, "yarn/max_preempt_per_round"));
    d->rm = std::make_unique<ResourceManager>(d->cluster.get(), yarn_opts);
    d->rm->SetTracer(&d->tracer);
    if (AttrSwitch(attrs, "obs/tracing")) d->tracer.set_enabled(true);
    d->load = std::make_unique<LoadInjector>(d->cluster.get());
    return Status::OK();
  };
  return r;
}

Recipe HiWayInstallRecipe() {
  Recipe r;
  r.name = "hiway::install";
  r.dependencies = {"hadoop::install"};
  r.converge = [](const ChefAttributes& attrs, Deployment* d) -> Status {
    RegisterStandardTools(&d->tools);
    std::string backend = AttrText(attrs, "hiway/prov_backend");
    if (backend == "provdb") {
      auto sharded =
          OpenShardedProvenance(AttrText(attrs, "hiway/prov_dir"));
      if (!sharded.ok()) {
        return sharded.status().WithContext("hiway::install provenance");
      }
      d->provdb_dir = std::move(sharded->dir);
      d->provenance = std::move(sharded->manager);
    } else if (backend == "memory") {
      d->provenance = std::make_unique<ProvenanceManager>();
    } else {
      return Status::InvalidArgument("unknown hiway/prov_backend: " +
                                     backend);
    }
    if (AttrSwitch(attrs, "hiway/cache_results")) {
      ResultCacheOptions copts;
      copts.max_entries = AttrInt(attrs, "hiway/cache_max_entries");
      copts.verify = AttrSwitch(attrs, "hiway/cache_verify");
      copts.verify_rate = AttrNumber(attrs, "hiway/cache_verify_rate");
      copts.seed = static_cast<uint64_t>(AttrInt(attrs, "seed"));
      d->result_cache = std::make_unique<ResultCache>(
          d->dfs.get(), d->provenance.get(), copts);
      d->result_cache->SetTracer(&d->tracer);
      std::string cache_dir = AttrText(attrs, "hiway/cache_dir");
      if (!cache_dir.empty()) {
        // Persistent index: a restarted deployment pointed at the same
        // directory restores its sealed entries.
        HIWAY_RETURN_IF_ERROR(d->result_cache->OpenIndex(cache_dir)
                                  .WithContext("hiway::install cache index"));
      }
    }
    int64_t staging_mb = AttrInt(attrs, "hiway/cache_staging_mb");
    if (staging_mb >= 0) {
      StagingCacheOptions sopts;
      sopts.node_budget_bytes = staging_mb > 0 ? staging_mb << 20 : 0;
      d->staging_cache = std::make_unique<StagingCache>(sopts);
      d->staging_cache->SetTracer(&d->tracer);
    }
    if (AttrSwitch(attrs, "hiway/gc")) {
      d->gc = std::make_unique<IntermediateGc>(d->dfs.get());
      if (d->result_cache != nullptr) {
        // Sealed cache entries pin their outputs: the collector defers
        // them so a later submission can still replay the hit.
        d->gc->SetResultCache(d->result_cache.get());
      }
    }
    // The membership plane, built after the caches it keeps consistent
    // through node departures.
    auto policy = AutoscalerPolicyByName(AttrText(attrs, "elastic/autoscaler"));
    if (!policy.ok()) {
      return Status::InvalidArgument("attribute elastic/autoscaler: " +
                                     policy.status().message());
    }
    ElasticOptions opts;
    opts.policy = *policy;
    opts.policy.min_nodes =
        static_cast<int>(AttrInt(attrs, "elastic/min_nodes"));
    opts.policy.max_nodes =
        static_cast<int>(AttrInt(attrs, "elastic/max_nodes"));
    opts.join_delay_s = AttrNumber(attrs, "elastic/join_delay_s");
    opts.node_template = WorkerNode(attrs);
    d->elastic = std::make_unique<ElasticCluster>(
        &d->engine, d->cluster.get(), d->rm.get(), d->dfs.get(),
        d->staging_cache.get(), d->result_cache.get(), &d->tracer,
        std::move(opts));
    return Status::OK();
  };
  return r;
}

Recipe SnvWorkflowRecipe() {
  Recipe r;
  r.name = "workflow::snv-calling";
  r.dependencies = {"hiway::install"};
  r.converge = [](const ChefAttributes& attrs, Deployment* d) -> Status {
    SnvWorkloadOptions options;
    options.num_chunks = static_cast<int>(AttrInt(attrs, "snv/chunks"));
    options.chunk_bytes = AttrInt(attrs, "snv/chunk_mb") << 20;
    options.cram_compression = AttrSwitch(attrs, "snv/cram");
    GeneratedWorkload workload = MakeSnvCallingWorkflow(options);
    StagedWorkflow staged;
    staged.language = "cuneiform";
    staged.document = workload.document;
    staged.inputs = workload.inputs;
    std::string ingest = AttrText(attrs, "snv/ingest");
    if (ingest == "dfs") {
      for (const auto& [path, size] : workload.inputs) {
        HIWAY_RETURN_IF_ERROR(d->dfs->IngestFile(path, size));
      }
    } else if (ingest == "s3") {
      // Sec. 4.1, second experiment: "obtaining input read data during
      // workflow execution from the Amazon S3 bucket ... instead of
      // storing them on the cluster in HDFS".
      for (const auto& [path, size] : workload.inputs) {
        HIWAY_RETURN_IF_ERROR(d->dfs->RegisterExternalFile(path, size));
      }
    } else if (ingest != "none") {
      return Status::InvalidArgument("unknown snv/ingest mode: " + ingest);
    }
    d->workflows["snv-calling"] = std::move(staged);
    return Status::OK();
  };
  return r;
}

Recipe TraplineWorkflowRecipe() {
  Recipe r;
  r.name = "workflow::trapline";
  r.dependencies = {"hiway::install"};
  r.converge = [](const ChefAttributes& attrs, Deployment* d) -> Status {
    RnaSeqWorkloadOptions options;
    options.replicates_per_condition =
        static_cast<int>(AttrInt(attrs, "rnaseq/replicates"));
    options.sample_bytes = AttrInt(attrs, "rnaseq/sample_mb") << 20;
    GeneratedWorkload workload = MakeTraplineWorkflow(options);
    StagedWorkflow staged;
    staged.language = "galaxy";
    staged.document = workload.document;
    staged.inputs = workload.inputs;
    for (const auto& [name, path] : TraplineInputBindings(options)) {
      staged.galaxy_inputs[name] = path;
    }
    for (const auto& [path, size] : workload.inputs) {
      HIWAY_RETURN_IF_ERROR(d->dfs->IngestFile(path, size));
    }
    d->workflows["trapline"] = std::move(staged);
    return Status::OK();
  };
  return r;
}

Recipe MontageWorkflowRecipe() {
  Recipe r;
  r.name = "workflow::montage";
  r.dependencies = {"hiway::install"};
  r.converge = [](const ChefAttributes& attrs, Deployment* d) -> Status {
    MontageWorkloadOptions options;
    options.num_images = static_cast<int>(AttrInt(attrs, "montage/images"));
    options.image_bytes = AttrInt(attrs, "montage/image_mb") << 20;
    GeneratedWorkload workload = MakeMontageWorkflow(options);
    StagedWorkflow staged;
    staged.language = "dax";
    staged.document = workload.document;
    staged.inputs = workload.inputs;
    for (const auto& [path, size] : workload.inputs) {
      HIWAY_RETURN_IF_ERROR(d->dfs->IngestFile(path, size));
    }
    d->workflows["montage"] = std::move(staged);
    return Status::OK();
  };
  return r;
}

Recipe KmeansWorkflowRecipe() {
  Recipe r;
  r.name = "workflow::kmeans";
  r.dependencies = {"hiway::install"};
  r.converge = [](const ChefAttributes& attrs, Deployment* d) -> Status {
    KmeansWorkloadOptions options;
    options.points_bytes = AttrInt(attrs, "kmeans/points_mb") << 20;
    options.converge_after =
        static_cast<int>(AttrInt(attrs, "kmeans/converge_after"));
    GeneratedWorkload workload = MakeKmeansWorkflow(options);
    StagedWorkflow staged;
    staged.language = "cuneiform";
    staged.document = workload.document;
    staged.inputs = workload.inputs;
    for (const auto& [path, size] : workload.inputs) {
      HIWAY_RETURN_IF_ERROR(d->dfs->IngestFile(path, size));
    }
    d->workflows["kmeans"] = std::move(staged);
    return Status::OK();
  };
  return r;
}

}  // namespace hiway
