// Reproducible installation (Sec. 3.6): the paper provisions clusters,
// Hadoop, Hi-WAY, and execution-ready workflows (tools + input data)
// through Chef recipes orchestrated by Karamel. This module reproduces
// that declarative model against the simulator: recipes converge a
// Deployment (cluster topology, DFS, YARN, tool profiles, staged inputs,
// workflow documents) in dependency order, so every experiment in bench/
// is a one-call, parameterised, repeatable setup.

#ifndef HIWAY_INFRA_KARAMEL_H_
#define HIWAY_INFRA_KARAMEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
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
  /// Elastic membership control plane (docs/elastic-cluster.md): every
  /// node departure runs through it. Built by HiWayInstallRecipe for
  /// every deployment (autoscaler off unless elastic/autoscaler names a
  /// policy). Declared after the cluster/RM/DFS/caches it points into
  /// (destroyed first).
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

  /// Checks every set attribute against AttributeTable(), then
  /// topologically orders the recipes and converges each against a fresh
  /// Deployment. Unknown or malformed attributes, unknown dependencies
  /// and cycles are InvalidArgument errors.
  Result<std::unique_ptr<Deployment>> Converge();

 private:
  std::vector<Recipe> recipes_;
  ChefAttributes attributes_;
};

// ---- Built-in cookbook ----------------------------------------------------

/// Kind of value a deployment attribute takes. Switches accept
/// on|off|true|false|1|0; text is free-form (a recipe may accept only a
/// fixed set of names and rejects the rest itself).
enum class AttributeKind { kInteger, kNumber, kSwitch, kText };

/// One attribute the built-in recipes read. Karamel::Converge rejects any
/// set attribute that has no row or whose value does not fit it.
struct AttributeSpec {
  const char* key;
  AttributeKind kind;
  /// The value an unset attribute takes, spelled as after `-a KEY=`.
  const char* default_value;
  const char* meaning;
  /// Inclusive range of a kInteger or kNumber attribute.
  double min = 0, max = 0;
};

/// Every attribute of the built-in cookbook, one row per key, grouped by
/// the recipe that reads it.
std::span<const AttributeSpec> AttributeTable();

/// The values `spec` accepts, for help text: "[1, 4096]", "switch", ...
std::string AttributeRange(const AttributeSpec& spec);

/// Provisions the cluster, HDFS, and YARN.
Recipe HadoopInstallRecipe();

/// Installs Hi-WAY: the standard tool profiles, the sharded provenance
/// manager, (when enabled) the data caches and the garbage collector,
/// and the elastic membership plane (docs/elastic-cluster.md). The
/// plane's poll loop only runs for enabled policies, and only once the
/// service (or a test) calls Start(); joiners get the fleet's worker
/// hardware.
Recipe HiWayInstallRecipe();

/// Stages the SNV-calling workflow (Sec. 4.1).
Recipe SnvWorkflowRecipe();

/// Stages the TRAPLINE RNA-seq Galaxy workflow (Sec. 4.2).
Recipe TraplineWorkflowRecipe();

/// Stages the Montage DAX workflow (Sec. 4.3).
Recipe MontageWorkflowRecipe();

/// Stages the iterative k-means workflow.
Recipe KmeansWorkflowRecipe();

}  // namespace hiway

#endif  // HIWAY_INFRA_KARAMEL_H_
