// Reproducible installation (Sec. 3.6): the paper provisions clusters,
// Hadoop, Hi-WAY, and execution-ready workflows (tools + input data)
// through Chef recipes orchestrated by Karamel. This module reproduces
// that declarative model against the simulator: recipes converge a
// Deployment (cluster topology, DFS, YARN, tool profiles, staged inputs,
// workflow documents) in dependency order, so every experiment in bench/
// is a one-call, parameterised, repeatable setup.

#ifndef HIWAY_INFRA_KARAMEL_H_
#define HIWAY_INFRA_KARAMEL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/result_cache.h"
#include "src/cache/staging_cache.h"
#include "src/common/result.h"
#include "src/core/provenance.h"
#include "src/gc/intermediate_gc.h"
#include "src/core/runtime_estimator.h"
#include "src/elastic/elastic_cluster.h"
#include "src/hdfs/dfs.h"
#include "src/obs/tracer.h"
#include "src/sim/cluster.h"
#include "src/sim/load_injector.h"
#include "src/tools/tool_registry.h"
#include "src/yarn/yarn.h"

namespace hiway {

/// Chef-style node attributes: string key/value configuration consumed by
/// recipes (e.g. "cluster/workers" = "16").
using ChefAttributes = std::map<std::string, std::string>;

/// A workflow staged onto the cluster, ready to submit.
struct StagedWorkflow {
  /// "cuneiform", "dax", "galaxy", or "trace".
  std::string language;
  std::string document;
  /// Galaxy input placeholder bindings (Galaxy workflows only).
  std::map<std::string, std::string> galaxy_inputs;
  /// Input files the recipe ingested into the DFS: (path, bytes).
  std::vector<std::pair<std::string, int64_t>> inputs;
};

/// The converged state of one simulated deployment. Owns the engine and
/// every component living inside it.
class Deployment {
 public:
  Deployment() : net(&engine), tracer(&engine) {}
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  SimEngine engine;
  FlowNetwork net;
  /// Deployment-wide execution tracer (src/obs/tracer.h). Attached to
  /// the RM by HadoopInstallRecipe; disabled until set_enabled(true)
  /// (or the obs/tracing = "on" attribute).
  Tracer tracer;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Dfs> dfs;
  std::unique_ptr<ResourceManager> rm;
  std::unique_ptr<LoadInjector> load;
  ToolRegistry tools;
  /// Durable shard backend when hiway/prov_backend = "provdb"; null for
  /// the in-memory default. Declared before `provenance` so the manager
  /// (whose shard factory captures it) is destroyed first.
  std::shared_ptr<class ProvDbDirectory> provdb_dir;
  std::unique_ptr<ProvenanceManager> provenance;
  /// Cluster-wide result cache and per-node staging cache
  /// (docs/data-cache.md); null unless the hiway/cache_* attributes
  /// enable them. Declared after `provenance` (destroyed first): the
  /// result cache resolves hits through provenance shards.
  std::unique_ptr<ResultCache> result_cache;
  std::unique_ptr<StagingCache> staging_cache;
  /// Intermediate-data garbage collector (docs/storage-model.md); null
  /// unless hiway/gc = "on". Declared after the caches: its cache-pin
  /// checks reference `result_cache`, so it must be destroyed first.
  std::unique_ptr<IntermediateGc> gc;
  /// Elastic membership control plane (docs/elastic-cluster.md); built
  /// by ElasticInstallRecipe. Declared after the cluster/RM/DFS/caches
  /// it points into (destroyed first).
  std::unique_ptr<ElasticCluster> elastic;
  RuntimeEstimator estimator;
  std::map<std::string, StagedWorkflow> workflows;
};

/// One installation step with Chef-style dependencies.
struct Recipe {
  std::string name;
  std::vector<std::string> dependencies;
  std::function<Status(const ChefAttributes&, Deployment*)> converge;
};

/// Orchestrates recipes in dependency order (Karamel's role in the paper).
class Karamel {
 public:
  /// Registers a recipe; duplicate names are an error at Converge time.
  void AddRecipe(Recipe recipe) { recipes_.push_back(std::move(recipe)); }

  void SetAttribute(const std::string& key, const std::string& value) {
    attributes_[key] = value;
  }
  const ChefAttributes& attributes() const { return attributes_; }

  /// Topologically orders the recipes and converges each against a fresh
  /// Deployment. Unknown dependencies and cycles are errors.
  Result<std::unique_ptr<Deployment>> Converge();

 private:
  std::vector<Recipe> recipes_;
  ChefAttributes attributes_;
};

// ---- Built-in cookbook ----------------------------------------------------

/// Provisions the cluster, HDFS, and YARN.
/// Attributes (defaults in parentheses):
///   cluster/workers (4), cluster/cores (2), cluster/memory_mb (7680),
///   cluster/disk_mbps (150), cluster/nic_mbps (125),
///   cluster/switch_mbps (1250), cluster/ebs_mbps (0), cluster/s3_mbps (0),
///   dfs/replication (3), dfs/block_mb (128), dfs/capacity_mb (0 =
///   unlimited; N > 0 caps raw replica-weighted DFS bytes at N MiB —
///   see docs/storage-model.md), yarn/allocation_delay_s (0.5),
///   yarn/scheduler ("fifo"; "capacity" or "fair" — any other name is
///   an InvalidArgument error), yarn/preemption ("false"),
///   yarn/preemption_grace_s (5), yarn/max_preempt_per_round (2),
///   obs/tracing ("off"; "on" enables the deployment tracer — see
///   docs/observability.md)
Recipe HadoopInstallRecipe();

/// Installs Hi-WAY: the standard tool profiles and the sharded
/// provenance manager. Attributes:
///   hiway/prov_backend ("memory"; "provdb" gives every run its own log
///   segment), hiway/prov_dir ("provdb" backend's segment directory,
///   default "hiway-provenance"),
///   hiway/cache_results ("off"; "on" builds the cluster-wide result
///   cache), hiway/cache_max_entries (0 = unbounded),
///   hiway/cache_verify ("off"; "on" spot-checks hits against DFS),
///   hiway/cache_verify_rate (0.25), hiway/cache_dir ("" = volatile;
///   a path persists the cache index in a provdb log there),
///   hiway/cache_staging_mb (-1 = no staging cache; 0 = unbounded
///   per-node budget; N > 0 = N MiB per node),
///   hiway/gc ("off"; "on" builds the intermediate-data garbage
///   collector — see docs/storage-model.md)
Recipe HiWayInstallRecipe();

/// Builds the elastic membership control plane (docs/elastic-cluster.md)
/// over the converged cluster/RM/DFS/caches. Always creates
/// Deployment::elastic (revocations work even with autoscaling off); the
/// poll loop only runs for enabled policies, and only once the service
/// (or a test) calls Start(). Attributes:
///   elastic/autoscaler ("off"; "reactive", "aggressive", or
///   "conservative" enable scaling), elastic/min_nodes (1),
///   elastic/max_nodes (0 = the converged cluster size),
///   elastic/join_delay_s (5)
Recipe ElasticInstallRecipe();

/// Stages the SNV-calling workflow (Sec. 4.1). Attributes:
///   snv/chunks (8), snv/chunk_mb (1024), snv/cram (0), snv/ingest ("dfs":
///   replicate into HDFS; "none": register sizes only, e.g. S3 inputs)
Recipe SnvWorkflowRecipe();

/// Stages the TRAPLINE RNA-seq Galaxy workflow (Sec. 4.2). Attributes:
///   rnaseq/replicates (3), rnaseq/sample_mb (1740)
Recipe TraplineWorkflowRecipe();

/// Stages the Montage DAX workflow (Sec. 4.3). Attributes:
///   montage/images (11), montage/image_mb (4)
Recipe MontageWorkflowRecipe();

/// Stages the iterative k-means workflow. Attributes:
///   kmeans/points_mb (64), kmeans/converge_after (5)
Recipe KmeansWorkflowRecipe();

}  // namespace hiway

#endif  // HIWAY_INFRA_KARAMEL_H_
