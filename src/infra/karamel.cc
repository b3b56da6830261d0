#include "src/infra/karamel.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <set>

#include "src/common/strings.h"
#include "src/provdb/provdb.h"
#include "src/tools/standard_tools.h"
#include "src/workloads/workloads.h"

namespace hiway {

namespace {

std::string Attr(const ChefAttributes& attrs, const std::string& key,
                 const std::string& def) {
  auto it = attrs.find(key);
  return it == attrs.end() ? def : it->second;
}

/// Parses attrs[key] as an integer in [min, max]; absent means `def`.
/// Unparseable or out-of-range values are loud errors naming the key and
/// the offending token — recipes never silently fall back to defaults.
Result<int64_t> AttrInt(const ChefAttributes& attrs, const std::string& key,
                        int64_t def, int64_t min, int64_t max) {
  auto it = attrs.find(key);
  if (it == attrs.end()) return def;
  auto parsed = ParseInt64(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument(
        StrFormat("attribute %s: '%s' is not an integer", key.c_str(),
                  it->second.c_str()));
  }
  if (*parsed < min || *parsed > max) {
    return Status::InvalidArgument(StrFormat(
        "attribute %s: %lld is outside the allowed range [%lld, %lld]",
        key.c_str(), static_cast<long long>(*parsed),
        static_cast<long long>(min), static_cast<long long>(max)));
  }
  return *parsed;
}

Result<double> AttrDouble(const ChefAttributes& attrs, const std::string& key,
                          double def, double min, double max) {
  auto it = attrs.find(key);
  if (it == attrs.end()) return def;
  auto parsed = ParseDouble(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument(
        StrFormat("attribute %s: '%s' is not a number", key.c_str(),
                  it->second.c_str()));
  }
  if (!std::isfinite(*parsed) || *parsed < min || *parsed > max) {
    return Status::InvalidArgument(
        StrFormat("attribute %s: %s is outside the allowed range [%g, %g]",
                  key.c_str(), it->second.c_str(), min, max));
  }
  return *parsed;
}

}  // namespace

Result<std::unique_ptr<Deployment>> Karamel::Converge() {
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
    NodeSpec node;
    HIWAY_ASSIGN_OR_RETURN(int64_t cores,
                           AttrInt(attrs, "cluster/cores", 2, 1, 4096));
    node.cores = static_cast<int>(cores);
    HIWAY_ASSIGN_OR_RETURN(
        node.memory_mb, AttrDouble(attrs, "cluster/memory_mb", 7680.0,
                                   1.0, 1e9));
    HIWAY_ASSIGN_OR_RETURN(
        node.disk_bw_mbps, AttrDouble(attrs, "cluster/disk_mbps", 150.0,
                                      0.001, 1e9));
    HIWAY_ASSIGN_OR_RETURN(
        node.nic_bw_mbps, AttrDouble(attrs, "cluster/nic_mbps", 125.0,
                                     0.001, 1e9));
    HIWAY_ASSIGN_OR_RETURN(
        int64_t workers, AttrInt(attrs, "cluster/workers", 4, 1, 1000000));
    HIWAY_ASSIGN_OR_RETURN(
        double switch_mbps, AttrDouble(attrs, "cluster/switch_mbps", 1250.0,
                                       0.001, 1e9));
    ClusterSpec spec =
        ClusterSpec::Uniform(static_cast<int>(workers), node, switch_mbps);
    HIWAY_ASSIGN_OR_RETURN(
        spec.ebs_bw_mbps, AttrDouble(attrs, "cluster/ebs_mbps", 0.0, 0.0, 1e9));
    HIWAY_ASSIGN_OR_RETURN(
        spec.s3_bw_mbps, AttrDouble(attrs, "cluster/s3_mbps", 0.0, 0.0, 1e9));
    d->cluster = std::make_unique<Cluster>(&d->engine, &d->net, spec);
    DfsOptions dfs_opts;
    HIWAY_ASSIGN_OR_RETURN(int64_t replication,
                           AttrInt(attrs, "dfs/replication", 3, 1, 64));
    dfs_opts.replication = static_cast<int>(replication);
    HIWAY_ASSIGN_OR_RETURN(int64_t block_mb,
                           AttrInt(attrs, "dfs/block_mb", 128, 1, 1 << 20));
    dfs_opts.block_size_bytes = block_mb << 20;
    HIWAY_ASSIGN_OR_RETURN(
        int64_t capacity_mb,
        AttrInt(attrs, "dfs/capacity_mb", 0, 0, int64_t{1} << 40));
    dfs_opts.capacity_bytes = capacity_mb << 20;
    HIWAY_ASSIGN_OR_RETURN(
        int64_t first_dn,
        AttrInt(attrs, "dfs/first_datanode", 0, 0, 2147483647));
    dfs_opts.first_datanode = static_cast<NodeId>(first_dn);
    HIWAY_ASSIGN_OR_RETURN(int64_t seed,
                           AttrInt(attrs, "seed", 7, INT64_MIN, INT64_MAX));
    dfs_opts.seed = static_cast<uint64_t>(seed);
    d->dfs = std::make_unique<Dfs>(d->cluster.get(), dfs_opts);
    YarnOptions yarn_opts;
    HIWAY_ASSIGN_OR_RETURN(
        yarn_opts.allocation_delay_s,
        AttrDouble(attrs, "yarn/allocation_delay_s", 0.5, 0.0, 1e9));
    auto policy = ParseRmPolicy(Attr(attrs, "yarn/scheduler", "fifo"));
    if (!policy.ok()) {
      return Status::InvalidArgument("attribute yarn/scheduler: " +
                                     policy.status().message());
    }
    yarn_opts.scheduler = *policy;
    yarn_opts.preemption = Attr(attrs, "yarn/preemption", "false") == "true";
    HIWAY_ASSIGN_OR_RETURN(
        yarn_opts.preemption_grace_s,
        AttrDouble(attrs, "yarn/preemption_grace_s", 5.0, 0.0, 1e9));
    HIWAY_ASSIGN_OR_RETURN(
        int64_t max_preempt,
        AttrInt(attrs, "yarn/max_preempt_per_round", 2, 0, 1000000));
    yarn_opts.max_preempt_per_round = static_cast<int>(max_preempt);
    d->rm = std::make_unique<ResourceManager>(d->cluster.get(), yarn_opts);
    d->rm->SetTracer(&d->tracer);
    if (Attr(attrs, "obs/tracing", "off") == "on") {
      d->tracer.set_enabled(true);
    }
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
    std::string backend = Attr(attrs, "hiway/prov_backend", "memory");
    if (backend == "provdb") {
      std::string dir =
          Attr(attrs, "hiway/prov_dir", "hiway-provenance");
      auto sharded = OpenShardedProvenance(dir);
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
    if (Attr(attrs, "hiway/cache_results", "off") == "on") {
      ResultCacheOptions copts;
      HIWAY_ASSIGN_OR_RETURN(
          copts.max_entries,
          AttrInt(attrs, "hiway/cache_max_entries", 0, 0, int64_t{1} << 40));
      copts.verify = Attr(attrs, "hiway/cache_verify", "off") == "on";
      HIWAY_ASSIGN_OR_RETURN(
          copts.verify_rate,
          AttrDouble(attrs, "hiway/cache_verify_rate", 0.25, 0.0, 1.0));
      HIWAY_ASSIGN_OR_RETURN(
          int64_t seed, AttrInt(attrs, "seed", 7, INT64_MIN, INT64_MAX));
      copts.seed = static_cast<uint64_t>(seed);
      d->result_cache = std::make_unique<ResultCache>(
          d->dfs.get(), d->provenance.get(), copts);
      d->result_cache->SetTracer(&d->tracer);
      std::string cache_dir = Attr(attrs, "hiway/cache_dir", "");
      if (!cache_dir.empty()) {
        // Persistent index: a restarted deployment pointed at the same
        // directory restores its sealed entries.
        HIWAY_RETURN_IF_ERROR(d->result_cache->OpenIndex(cache_dir)
                                  .WithContext("hiway::install cache index"));
      }
    }
    HIWAY_ASSIGN_OR_RETURN(
        int64_t staging_mb,
        AttrInt(attrs, "hiway/cache_staging_mb", -1, -1, 1 << 20));
    if (staging_mb >= 0) {
      StagingCacheOptions sopts;
      sopts.node_budget_bytes = staging_mb > 0 ? staging_mb << 20 : 0;
      d->staging_cache = std::make_unique<StagingCache>(sopts);
      d->staging_cache->SetTracer(&d->tracer);
    }
    if (Attr(attrs, "hiway/gc", "off") == "on") {
      d->gc = std::make_unique<IntermediateGc>(d->dfs.get());
      if (d->result_cache != nullptr) {
        // Sealed cache entries pin their outputs: the collector defers
        // them so a later submission can still replay the hit.
        d->gc->SetResultCache(d->result_cache.get());
      }
    }
    return Status::OK();
  };
  return r;
}

Recipe ElasticInstallRecipe() {
  Recipe r;
  r.name = "elastic::install";
  // Depends on hiway::install so the staging/result caches exist (when
  // enabled) by the time the control plane captures them.
  r.dependencies = {"hadoop::install", "hiway::install"};
  r.converge = [](const ChefAttributes& attrs, Deployment* d) -> Status {
    auto policy = AutoscalerPolicyByName(Attr(attrs, "elastic/autoscaler",
                                              "off"));
    if (!policy.ok()) {
      return policy.status().WithContext("elastic::install");
    }
    ElasticOptions opts;
    opts.policy = *policy;
    HIWAY_ASSIGN_OR_RETURN(int64_t min_nodes,
                           AttrInt(attrs, "elastic/min_nodes", 1, 0, 1000000));
    opts.policy.min_nodes = static_cast<int>(min_nodes);
    HIWAY_ASSIGN_OR_RETURN(int64_t max_nodes,
                           AttrInt(attrs, "elastic/max_nodes", 0, 0, 1000000));
    opts.policy.max_nodes = static_cast<int>(max_nodes);
    HIWAY_ASSIGN_OR_RETURN(
        opts.join_delay_s,
        AttrDouble(attrs, "elastic/join_delay_s", 5.0, 0.0, 1e9));
    // Joiners match the fleet's worker hardware.
    HIWAY_ASSIGN_OR_RETURN(int64_t cores,
                           AttrInt(attrs, "cluster/cores", 2, 1, 4096));
    opts.node_template.cores = static_cast<int>(cores);
    HIWAY_ASSIGN_OR_RETURN(
        opts.node_template.memory_mb,
        AttrDouble(attrs, "cluster/memory_mb", 7680.0, 1.0, 1e9));
    HIWAY_ASSIGN_OR_RETURN(
        opts.node_template.disk_bw_mbps,
        AttrDouble(attrs, "cluster/disk_mbps", 150.0, 0.001, 1e9));
    HIWAY_ASSIGN_OR_RETURN(
        opts.node_template.nic_bw_mbps,
        AttrDouble(attrs, "cluster/nic_mbps", 125.0, 0.001, 1e9));
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
    HIWAY_ASSIGN_OR_RETURN(int64_t chunks,
                           AttrInt(attrs, "snv/chunks", 8, 1, 100000));
    options.num_chunks = static_cast<int>(chunks);
    HIWAY_ASSIGN_OR_RETURN(int64_t chunk_mb,
                           AttrInt(attrs, "snv/chunk_mb", 1024, 1, 1 << 20));
    options.chunk_bytes = chunk_mb << 20;
    HIWAY_ASSIGN_OR_RETURN(int64_t cram, AttrInt(attrs, "snv/cram", 0, 0, 1));
    options.cram_compression = cram != 0;
    GeneratedWorkload workload = MakeSnvCallingWorkflow(options);
    StagedWorkflow staged;
    staged.language = "cuneiform";
    staged.document = workload.document;
    staged.inputs = workload.inputs;
    std::string ingest = Attr(attrs, "snv/ingest", "dfs");
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
    HIWAY_ASSIGN_OR_RETURN(int64_t replicates,
                           AttrInt(attrs, "rnaseq/replicates", 3, 1, 10000));
    options.replicates_per_condition = static_cast<int>(replicates);
    HIWAY_ASSIGN_OR_RETURN(
        int64_t sample_mb,
        AttrInt(attrs, "rnaseq/sample_mb", 1740, 1, 1 << 20));
    options.sample_bytes = sample_mb << 20;
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
    HIWAY_ASSIGN_OR_RETURN(int64_t images,
                           AttrInt(attrs, "montage/images", 11, 1, 10000));
    options.num_images = static_cast<int>(images);
    HIWAY_ASSIGN_OR_RETURN(int64_t image_mb,
                           AttrInt(attrs, "montage/image_mb", 4, 1, 1 << 20));
    options.image_bytes = image_mb << 20;
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
    HIWAY_ASSIGN_OR_RETURN(int64_t points_mb,
                           AttrInt(attrs, "kmeans/points_mb", 64, 1, 1 << 20));
    options.points_bytes = points_mb << 20;
    HIWAY_ASSIGN_OR_RETURN(
        int64_t converge_after,
        AttrInt(attrs, "kmeans/converge_after", 5, 1, 1000000));
    options.converge_after = static_cast<int>(converge_after);
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
