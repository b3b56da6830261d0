// Elastic cluster membership (docs/elastic-cluster.md): the control
// plane that grows and shrinks the worker fleet at runtime and keeps
// every data service consistent through churn. hiway::install builds
// one for every deployment; with the autoscaler off it only serves node
// departures and accrues node-hours.
//
// Every node departure runs one sequence (Depart), whose kind decides
// only the RM step, the DFS step and whether staging entries migrate:
//
//  * Lost (KillNode: kill-node and kill-am-node faults) — NodeManager
//    and DataNode die together: RM node loss, DFS replicas dropped with
//    no rescue.
//
//  * Revoked (RevokeNode(node, warn_s): the EC2 two-minute notice) —
//    the RM drains the node now (AMs keep short tasks, proactively
//    requeue the rest) and the staging cache migrates; at the deadline
//    the RM loses the node and the DataNode decommissions, rescuing
//    sole replicas first. The warning window is what lets the DataNode
//    push its blocks off in time, so a revocation loses no data where
//    a kill-node can.
//
//  * Retired (DecommissionNode: autoscaler scale-in) — the RM vacates
//    containers with the uncharged kDrained reason (it refuses a node
//    that hosts an AM, before anything else is touched), the staging
//    cache migrates first, and the DataNode decommissions with rescue.
//
// Then every kind drops what staging entries are left on the node,
// re-replicates, and sweeps result-cache entries whose outputs churn
// made unreadable (there are none after a rescue — the zero-data-loss
// invariant elastic_test pins down).
//
// Autoscaling is a policy-driven poll loop (src/elastic/autoscaler.h)
// that watches the RM's container backlog and idle workers, provisions
// new nodes (Cluster::AddNode + ResourceManager::AddNode after a
// configurable join delay, modelling VM boot + NodeManager
// registration) and retires empty ones. It terminates like
// FaultInjector::Recur: it keeps polling until the workload has been
// observed active and then quiesces, so RunUntilPredicate-driven runs
// end. Node-hours are accrued as the integral of the live-worker count
// over virtual time — the cost axis of bench_elastic's frontier.

#ifndef HIWAY_ELASTIC_ELASTIC_CLUSTER_H_
#define HIWAY_ELASTIC_ELASTIC_CLUSTER_H_

#include <functional>
#include <vector>

#include "src/cache/result_cache.h"
#include "src/cache/staging_cache.h"
#include "src/elastic/autoscaler.h"
#include "src/hdfs/dfs.h"
#include "src/sim/cluster.h"
#include "src/yarn/yarn.h"

namespace hiway {

class Tracer;

struct ElasticOptions {
  AutoscalerPolicy policy;
  /// Hardware of nodes the autoscaler provisions (defaults match the
  /// deployment's existing workers when wired by the karamel recipe).
  NodeSpec node_template;
  /// Seconds between a scale-out decision and the node joining the RM
  /// (VM provisioning + NodeManager registration).
  double join_delay_s = 5.0;
};

struct ElasticStats {
  int scale_out_actions = 0;
  int scale_in_actions = 0;
  int nodes_added = 0;
  int nodes_decommissioned = 0;
  int nodes_revoked = 0;
  /// Live-worker count integrated over virtual time (node-hours =
  /// node_seconds / 3600) — the frontier's cost axis.
  double node_seconds = 0.0;
};

class ElasticCluster {
 public:
  /// `staging`, `result_cache`, and `tracer` may be null (the
  /// corresponding maintenance steps are skipped). Nothing is owned.
  ElasticCluster(SimEngine* engine, Cluster* cluster, ResourceManager* rm,
                 Dfs* dfs, StagingCache* staging, ResultCache* result_cache,
                 Tracer* tracer, ElasticOptions options);
  ElasticCluster(const ElasticCluster&) = delete;
  ElasticCluster& operator=(const ElasticCluster&) = delete;

  /// True while the workload is running (the service wires !Idle()).
  /// The poll loop stops once this turns false after having been true.
  void SetActiveCheck(std::function<bool()> active) {
    active_ = std::move(active);
  }

  /// Starts the autoscaler poll loop (no-op for disabled policies —
  /// node-hours accrual still works via Accrue()/stats()). Call once,
  /// after the deployment converged.
  void Start();

  /// Unwarned node loss (kill-node faults): false unless `node` is a
  /// live node of the fleet.
  bool KillNode(NodeId node);

  /// Spot revocation with warning: drains `node` now, migrates its
  /// staging entries, and removes it `warn_s` seconds later (RM node
  /// loss + DFS decommission-with-rescue). warn_s = 0 drains and removes
  /// it within the same instant. No-op (returns false) for dead nodes
  /// and for nodes already draining.
  bool RevokeNode(NodeId node, double warn_s);

  /// Gracefully retires one specific node right now (scale-in path):
  /// false when the RM refuses (an AM lives there) or the node is dead;
  /// nothing is touched then.
  bool DecommissionNode(NodeId node);

  /// Workers currently alive (draining nodes count — they still run).
  int LiveNodes() const;

  /// Flushes the node-seconds integral up to now (stats() calls it).
  void Accrue();

  const ElasticStats& stats();
  const ElasticOptions& options() const { return options_; }

 private:
  void Poll(bool seen_activity);
  /// One scale-out action: schedules `count` joins after join_delay_s.
  void ScaleOut(int count);
  /// One scale-in action: retires up to `count` empty workers.
  void ScaleIn(int count);
  enum class Departure { kLost, kRevoked, kRetired };
  /// The one departure sequence of a live node (see the file comment).
  void Depart(NodeId node, Departure kind);
  std::vector<NodeId> MigrationTargets(NodeId excluding) const;

  SimEngine* engine_;
  Cluster* cluster_;
  ResourceManager* rm_;
  Dfs* dfs_;
  StagingCache* staging_;
  ResultCache* result_cache_;
  Tracer* tracer_;
  ElasticOptions options_;
  std::function<bool()> active_;
  bool started_ = false;
  /// Scale-outs decided but not yet joined (counted against max_nodes).
  int pending_joins_ = 0;
  /// Virtual time the backlog was first observed non-empty; < 0 = none.
  double backlog_since_ = -1.0;
  /// Virtual time an empty worker was first observed; < 0 = none.
  double idle_since_ = -1.0;
  /// Virtual time of the last scale action (cooldown anchor).
  double last_action_ = -1e18;
  double last_accrue_ = 0.0;
  ElasticStats stats_;
};

}  // namespace hiway

#endif  // HIWAY_ELASTIC_ELASTIC_CLUSTER_H_
