// Simulated Hadoop YARN: a ResourceManager that leases containers
// (fixed-size slices of a node's cores and memory) to per-application
// masters, honouring locality preferences, strict placements (for static
// schedules), and blacklists (for failure retries).
//
// This implements the scheduling contract Hi-WAY consumes (Sec. 3.1 of
// the paper): request container -> allocation callback -> launch work ->
// release / failure notification — for MANY concurrent application
// masters sharing one cluster (the paper's scalability pillar: one AM
// per workflow). Which pending request is served first is one of a
// closed set of RM policies (RmPolicy): FIFO (default, the original
// single-tenant behaviour), a CapacityScheduler with per-queue
// guaranteed/maximum shares, or a FairScheduler using dominant-resource
// fairness. Each policy has exactly one implementation, an allocation
// pass engine in yarn.cc. The RM additionally keeps per-application and
// per-queue accounting (counters, allocated shares, request wait times,
// a time-averaged Jain fairness index) for multi-tenant metrics.
//
// The hot path is built for thousands of concurrent applications on
// thousands of nodes (docs/scaling.md): per-event lookups go through
// open-addressing FlatHashMaps instead of std::map, placement consults
// an ordered index of nodes with free capacity instead of scanning the
// fleet, the allocation pass keeps per-queue/per-app candidate groups in
// a heap instead of re-scoring every pending request per pick, and the
// Jain fairness accounting maintains incremental aggregates instead of
// recomputing per-app shares on every state change. The naive full-scan
// pass and the from-scratch fairness index these are checked against
// live in the test oracle library (tests/oracles/rm_oracle.h).

#ifndef HIWAY_YARN_YARN_H_
#define HIWAY_YARN_YARN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/flat_hash.h"
#include "src/common/result.h"
#include "src/sim/cluster.h"

namespace hiway {

class Tracer;

using ApplicationId = int32_t;
using ContainerId = int64_t;
constexpr ContainerId kInvalidContainer = -1;

struct RmTenancyView;
class RmOracle;

/// The RM's scheduling policy: which pending request an allocation pass
/// serves first (src/yarn/rm_scheduler.h has the scoring rules).
enum class RmPolicy { kFifo, kCapacity, kFair };

/// Parses "fifo" | "capacity" | "fair"; any other name is InvalidArgument
/// naming the token.
Result<RmPolicy> ParseRmPolicy(const std::string& name);
const char* ToString(RmPolicy policy);

/// A leased slice of one node.
struct Container {
  ContainerId id = kInvalidContainer;
  ApplicationId app = -1;
  NodeId node = kInvalidNode;
  int vcores = 1;
  double memory_mb = 1024.0;
  /// True for the container hosting the application's master process.
  bool is_am = false;
  /// Preemption priority inherited from the request (lower = preempted
  /// first); see docs/scheduling-model.md.
  int priority = 0;
  /// Virtual time the container was allocated (wasted-work accounting).
  double allocated_at = 0.0;
};

/// Why a running container was taken away from its application (see
/// docs/failure-model.md for the full failure taxonomy).
enum class ContainerLossReason {
  /// The hosting node died. AMs should NOT blacklist the node for the
  /// retried task: the RM already stopped placing there.
  kNodeLost,
  /// The container process was killed (fault injection). The node itself
  /// is healthy.
  kKilled,
  /// The RM reclaimed the container to restore another queue's
  /// guaranteed share. Like kNodeLost this is not the task's (or the
  /// node's) fault: AMs must neither charge the retry budget nor
  /// blacklist the node (docs/scheduling-model.md).
  kPreempted,
  /// The container was vacated because its node is draining (spot
  /// revocation warning or autoscaler decommission). Exactly the
  /// kPreempted exemption applies: no retry charge, no blacklist, the
  /// task re-queues immediately on the remaining fleet
  /// (docs/elastic-cluster.md).
  kDrained,
};

const char* ToString(ContainerLossReason reason);

/// What an application asks the RM for.
struct ContainerRequest {
  int vcores = 1;
  double memory_mb = 1024.0;
  /// Preferred host (data locality); kInvalidNode = anywhere.
  NodeId preferred_node = kInvalidNode;
  /// If true the request may only be satisfied on `preferred_node`
  /// (static schedules pin their placements).
  bool strict_locality = false;
  /// Nodes this request must avoid (failed-attempt blacklisting).
  std::vector<NodeId> blacklist;
  /// Opaque cookie passed back with the allocation.
  int64_t cookie = 0;
  /// Preemption priority of the resulting container: when the RM must
  /// reclaim capacity for a starved queue it kills lower values first.
  int priority = 0;
};

/// Callbacks implemented by an application master.
class AmCallbacks {
 public:
  virtual ~AmCallbacks() = default;
  /// A previously submitted request has been satisfied.
  virtual void OnContainerAllocated(const Container& container,
                                    int64_t cookie) = 0;
  /// A running container was lost; `reason` says why (node death vs.
  /// targeted kill) so the AM can decide whether blacklisting is useful.
  virtual void OnContainerLost(const Container& container,
                               ContainerLossReason reason) = 0;
  /// `node` entered the draining state (spot revocation warning or
  /// decommission) and disappears at virtual time `deadline`. The RM has
  /// already stopped placing new containers there; the AM should let
  /// work that finishes before the deadline run and proactively vacate
  /// (ResourceManager::DrainContainer) the rest. Default: do nothing —
  /// running containers are then lost at the deadline with kNodeLost.
  virtual void OnNodeDraining(NodeId node, double deadline) {
    (void)node;
    (void)deadline;
  }
};

/// RM-side counters for master-load accounting (Fig. 6). Kept both
/// globally and attributed per application / per queue.
struct RmCounters {
  int64_t requests = 0;
  int64_t allocations = 0;
  int64_t releases = 0;
  int64_t lost_containers = 0;
  /// Containers reclaimed from failed applications (orphans of a dead
  /// AM; the RM frees them without notifying the departed master).
  int64_t reclaimed_containers = 0;
  /// Applications the RM declared failed (AM container lost, AM
  /// heartbeat timeout, or an injected AM kill).
  int64_t app_failures = 0;
  /// Containers killed by the RM to restore a starved queue's guarantee
  /// (kPreempted losses; disjoint from lost_containers).
  int64_t preempted_containers = 0;
  /// Container-seconds thrown away by preemption (victim lifetime at
  /// kill time). wasted-work ratio = preempted_work_s / container_work_s.
  double preempted_work_s = 0.0;
  /// Containers vacated because their node was draining (kDrained;
  /// disjoint from both lost_containers and preempted_containers), and
  /// the container-seconds those vacations threw away.
  int64_t drained_containers = 0;
  double drained_work_s = 0.0;
  /// Container-seconds thrown away by genuine losses (kNodeLost/kKilled
  /// drops of live masters' containers) — the unwarned-kill counterpart
  /// of drained_work_s that bench_elastic's drain gate compares against.
  double lost_work_s = 0.0;
  /// Total container-seconds of finished task containers (AM containers
  /// excluded); denominator of the wasted-work ratio.
  double container_work_s = 0.0;
};

/// A (vcores, memory) pair: allocated resources or aggregate demand.
struct ResourceUsage {
  int vcores = 0;
  double memory_mb = 0.0;
};

/// Configuration of one RM scheduler queue. Shares are fractions of the
/// live cluster capacity (both vcores and memory); `guaranteed_share` is
/// what the capacity scheduler strives to give the queue under
/// contention, `max_share` is a hard ceiling, `weight` scales an
/// application's dominant share under the fair scheduler.
struct RmQueueConfig {
  std::string name = "default";
  double guaranteed_share = 1.0;
  double max_share = 1.0;
  double weight = 1.0;
};

/// Per-application / per-queue accounting snapshot.
struct TenantStats {
  RmCounters counters;
  /// Currently allocated resources (including the AM container).
  ResourceUsage usage;
  /// Aggregate size of queued (unallocated) requests.
  ResourceUsage pending;
  int pending_requests = 0;
  /// Request-to-allocation latencies, in submission order.
  std::vector<double> wait_times_s;
  /// Queue the tenant belongs to (apps) or the queue's own name.
  std::string queue;
  // -- Queue entries only (zero for per-application stats) ---------------
  /// Total virtual time the queue spent starved: backlogged yet below its
  /// guaranteed share (integrated over closed starvation episodes).
  double time_under_guarantee_s = 0.0;
  /// Duration of each closed starvation episode, in order: how long the
  /// queue took to climb back to its guarantee (or drain its backlog)
  /// after dropping below it. The guarantee-restoration latencies
  /// bench_preemption reports percentiles over.
  std::vector<double> restoration_latency_s;
};

/// AM liveness is a lease: an AM beats at registration and then every
/// kAmHeartbeatS, and is dead once silent for kAmLivenessTimeoutS. The
/// beats are implied, not simulated; only AmSilent() schedules an event.
constexpr double kAmHeartbeatS = 1.0;
constexpr double kAmLivenessTimeoutS = 10.0;

struct YarnOptions {
  /// Latency between a request (or a release) and the allocation pass,
  /// modelling the NM/AM heartbeat cadence.
  double allocation_delay_s = 0.5;
  /// RM scheduling policy.
  RmPolicy scheduler = RmPolicy::kFifo;
  /// Container preemption (docs/scheduling-model.md): when enabled, a
  /// queue that stays starved (backlogged below its guaranteed share)
  /// longer than `preemption_grace_s` reclaims capacity by killing task
  /// containers of over-guarantee queues — lowest priority first, never
  /// AM containers, at most `max_preempt_per_round` kills per allocation
  /// pass. Starvation episodes are tracked (and restoration latencies
  /// recorded) even when preemption itself is disabled.
  bool preemption = false;
  double preemption_grace_s = 5.0;
  int max_preempt_per_round = 2;
};

class ResourceManager {
 public:
  ResourceManager(Cluster* cluster, YarnOptions options);
  ~ResourceManager();
  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  /// Switches the scheduling policy (existing pending requests are
  /// re-ordered by the new policy from the next pass on).
  void SetPolicy(RmPolicy policy) { options_.scheduler = policy; }
  RmPolicy policy() const { return options_.scheduler; }

  /// Defines or reconfigures a queue. The "default" queue always exists
  /// (guaranteed = max = 1.0).
  void ConfigureQueue(const RmQueueConfig& config);
  const RmQueueConfig* queue_config(const std::string& name) const;
  std::vector<std::string> ConfiguredQueues() const;

  /// Registers an application and allocates its AM container (the paper
  /// runs one dedicated AM container per workflow). When `am_node` is
  /// given the AM is pinned there (the scalability experiment isolates the
  /// AM on its own VM); otherwise the RM picks any node with capacity.
  /// Returns the application id, or an error if no capacity exists or the
  /// queue is unknown.
  Result<ApplicationId> RegisterApplication(const std::string& name,
                                            AmCallbacks* callbacks,
                                            int am_vcores, double am_memory_mb,
                                            NodeId am_node = kInvalidNode,
                                            const std::string& queue =
                                                "default");

  /// Releases the AM container and drops pending requests.
  void UnregisterApplication(ApplicationId app);

  /// Queues a container request; the AM is called back on allocation.
  void SubmitRequest(ApplicationId app, const ContainerRequest& request);

  /// Withdraws all pending (unallocated) requests of an application whose
  /// cookie matches `cookie`. Returns how many were removed. Other
  /// applications' requests are never touched.
  int CancelRequests(ApplicationId app, int64_t cookie);

  /// Returns a finished container's resources to its node.
  void ReleaseContainer(ContainerId id);

  /// Simulates a NodeManager crash: capacity disappears, applications
  /// whose AM container lived on the node are failed (their surviving
  /// containers reclaimed, the failure listener notified), and the
  /// remaining lost containers are reported synchronously to their
  /// owning AMs with reason kNodeLost.
  void KillNode(NodeId node);

  // ---- Elastic membership (docs/elastic-cluster.md) ---------------------

  /// Onboards a node freshly appended to the cluster topology
  /// (Cluster::AddNode): its capacity joins the live pool and an
  /// allocation pass is scheduled, modelling the NodeManager's
  /// registration heartbeat. `node` must be the id Cluster::AddNode
  /// returned (nodes onboard in id order).
  void AddNode(NodeId node);

  /// Puts a live node into the draining state (active -> draining): no
  /// new containers are placed there, and every registered AM is told
  /// via OnNodeDraining(node, deadline) so it can let short tasks finish
  /// and vacate the rest. Idempotent; no-op for dead nodes. The RM does
  /// NOT act at the deadline itself — the caller follows up with
  /// KillNode (spot revocation) or DecommissionNode (graceful).
  void BeginDrain(NodeId node, double deadline);

  /// Gracefully retires a node (draining -> gone): remaining task
  /// containers are vacated with kDrained (no attempt charge), then the
  /// node's capacity leaves the pool. Refuses (returns false) when an AM
  /// container still lives there — drain it away first or use KillNode.
  bool DecommissionNode(NodeId node);

  /// True when an AM container lives on `node`: DecommissionNode refuses
  /// such a node.
  bool HostsAm(NodeId node) const;

  /// Vacates one running task container with reason kDrained: the owning
  /// AM re-queues the task with no retry charge or blacklist entry (the
  /// proactive-requeue half of checkpoint-or-requeue during a drain).
  /// False for unknown ids; AM containers are refused.
  bool DrainContainer(ContainerId id);

  bool IsNodeDraining(NodeId node) const;  // false outside the fleet

  /// Containers (tasks + AMs) currently hosted on `node`.
  int containers_on(NodeId node) const;

  /// Declares an application failed (AM process death): drops its
  /// pending requests, reclaims every container it still holds (AM and
  /// tasks) without callbacks to the — presumed dead — master, and
  /// invokes the app-failure listener. Unknown apps are ignored.
  void FailApplication(ApplicationId app, const std::string& reason);

  /// Kills one running container (fault injection / preemption). A task
  /// container is reported lost (kKilled) to its AM; killing an AM
  /// container fails the whole application. False for unknown ids.
  bool KillContainer(ContainerId id);

  /// The application's AM died now: fail it kAmLivenessTimeoutS after its
  /// last beat before now, unless it is gone by then. Unknown apps are
  /// ignored.
  void AmSilent(ApplicationId app);

  /// Invoked whenever the RM declares an application failed, with the
  /// application's registered name and a human-readable reason. The
  /// dead AM's callbacks are never used again.
  using AppFailureListener = std::function<void(
      ApplicationId app, const std::string& name, const std::string& reason)>;
  void SetAppFailureListener(AppFailureListener listener) {
    app_failure_listener_ = std::move(listener);
  }

  /// Snapshot of running containers (diagnostics / fault injection),
  /// ascending container id.
  std::vector<Container> RunningContainers() const;

  /// False for ids outside the fleet (a fault may aim beyond it).
  bool IsNodeAlive(NodeId node) const;

  /// Node hosting an application's AM container.
  Result<NodeId> AmNode(ApplicationId app) const;

  int free_vcores(NodeId node) const;
  double free_memory_mb(NodeId node) const;

  /// Live cluster capacity (dead nodes excluded).
  int total_vcores() const { return total_vcores_; }
  double total_memory_mb() const { return total_memory_mb_; }

  /// YARN's maximum-allocation check, per node shape: OK when some node
  /// ever registered is at least `vcores` x `memory_mb`, otherwise a
  /// ResourceExhausted naming the node shapes. On a heterogeneous cluster
  /// a request can fit the largest vcores and the largest memory of two
  /// different nodes yet no single node; it would wait forever.
  Status CheckAllocatable(int vcores, double memory_mb) const;

  /// Containers currently running (including AM containers).
  int running_containers() const {
    return static_cast<int>(containers_.size());
  }
  int pending_requests() const { return static_cast<int>(queue_.size()); }
  int pending_requests(ApplicationId app) const;

  const RmCounters& counters() const { return counters_; }


  /// Per-application accounting; survives UnregisterApplication so
  /// finished tenants remain attributable. nullptr for unknown apps.
  const TenantStats* app_stats(ApplicationId app) const;
  /// Per-queue accounting (aggregated over the queue's applications).
  const TenantStats* queue_stats(const std::string& queue) const;
  /// All applications ever registered, ascending id.
  std::vector<ApplicationId> KnownApplications() const;

  /// Time-averaged Jain fairness index of per-application demand
  /// satisfaction (allocated dominant share / demanded dominant share),
  /// integrated over intervals where >= 2 applications had unmet or met
  /// demand and at least one was backlogged. 1.0 when no such interval
  /// occurred. This is the fairness number Fig.-style multi-tenant
  /// benches report. Maintained incrementally (O(1) per state change)
  /// with periodic exact rebuilds to bound floating-point drift.
  double TimeAveragedFairness() const;

  /// Allocation passes executed so far, and the total host wall-clock
  /// time spent inside them (bench_scale's per-pass cost metric; the
  /// host clock never feeds back into the simulation).
  uint64_t allocation_passes() const { return passes_; }
  double allocation_pass_wall_s() const {
    return static_cast<double>(pass_wall_ns_) * 1e-9;
  }

  const YarnOptions& options() const { return options_; }
  Cluster* cluster() const { return cluster_; }

  /// Attaches an execution tracer (src/obs/tracer.h); the RM then
  /// records container lifecycle, allocation-pass, preemption, node-loss
  /// and app-failure span events. nullptr detaches.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

 private:
  /// Test seam: the reference oracle (tests/oracles/rm_oracle.h) reads
  /// private state and installs pass_hook_.
  friend class RmOracle;

  struct NodeState {
    int free_vcores = 0;
    double free_memory_mb = 0.0;
    bool alive = true;
    /// Decommission state machine: active (alive, !draining) ->
    /// draining (alive, draining) -> gone (!alive). Draining nodes keep
    /// their running containers but receive no new placements.
    bool draining = false;
    /// True while the node is in the placement index (open_nodes_ and
    /// the free-capacity multisets). Invariant: a node's free capacity
    /// is only mutated while unindexed, so the multiset entries always
    /// equal the current free values.
    bool indexed = false;
    /// Virtual time the draining node disappears (spot deadline).
    double drain_deadline = 0.0;
  };
  struct PendingRequest {
    ApplicationId app;
    ContainerRequest request;
    double submitted_at = 0.0;
  };
  /// One application's fairness cell: its demand-satisfaction ratio
  /// x = alloc / (alloc + pending) of dominant shares, and x². Not
  /// `included` while the application demands nothing.
  struct FairCell {
    double x = 0.0;
    double x2 = 0.0;
    bool included = false;
    bool backlogged = false;
  };
  struct AppState {
    std::string name;
    AmCallbacks* callbacks = nullptr;
    ContainerId am_container = kInvalidContainer;
    bool active = true;
    /// Registration time: the AM's first heartbeat, which it repeats
    /// every kAmHeartbeatS while it lives.
    double beat_phase = 0.0;
    /// This app's contribution to the aggregate Jain sums (FairnessTouch).
    FairCell fair;
  };
  /// One queued request inside an allocation pass's slot table. A slot is
  /// consumed on successful placement or marked ineligible for the rest
  /// of the pass on failure; un-consumed slots return to the queue in
  /// their original order.
  struct PassSlot {
    PendingRequest req;
    bool consumed = false;
    bool eligible = true;
  };

  /// Matches pending requests against free capacity in the order chosen
  /// by the policy; placement itself (locality preference, strict
  /// placement, blacklists) is policy-independent. Dispatches to the
  /// policy's pass engine (or to pass_hook_ when a test installed one).
  void AllocationPass();
  void ScheduleAllocationPass();

  /// FIFO in one forward sweep: the first live slot is tried next, and a
  /// slot leaves the pass whether or not it is placed.
  void FifoPass(std::vector<PassSlot>& slots, int* pass_allocations);
  /// Capacity (Key = queue name) / fair (Key = application id) pass over
  /// per-group candidate lists with a lazy min-heap of group heads.
  template <typename Key>
  void GroupedPass(std::vector<PassSlot>& slots, const RmTenancyView& view,
                   int* pass_allocations);
  /// Shared success bookkeeping: consume the slot, allocate on `chosen`,
  /// record waits, notify the AM asynchronously.
  void CommitAllocation(PassSlot& s, NodeId chosen, int* pass_allocations);

  /// Updates per-queue starvation episodes after an allocation pass and —
  /// when preemption is enabled and a queue's grace period has expired —
  /// runs one bounded preemption round on its behalf.
  void UpdateStarvation();
  /// Read-only view of the tenancy state for scoring and preemption.
  RmTenancyView TenancyView() const;

  /// Kills up to `budget` task containers of over-guarantee queues so
  /// `starved` can reach its guarantee; returns the number killed.
  int PreemptFor(const std::string& starved, int budget);
  /// True while `queue` is backlogged below its guaranteed share.
  bool QueueStarved(const std::string& queue) const;

  /// Indexed placement: preferred node first, then (unless strict) a
  /// rotating scan over the ordered open-node set, with O(1) rejection
  /// of requests no node can hold. Pick-identical to TryPlaceScan.
  NodeId TryPlace(const ContainerRequest& r);
  /// Seed placement logic: rotating scan over the whole fleet (zero-size
  /// requests, which the open-node index cannot serve).
  NodeId TryPlaceScan(const ContainerRequest& r);

  bool Fits(const NodeState& ns, const ContainerRequest& r) const {
    return ns.alive && !ns.draining && ns.free_vcores >= r.vcores &&
           ns.free_memory_mb >= r.memory_mb;
  }

  /// Inserts `node` into the placement index iff it is alive and not
  /// draining (no-op otherwise / when already indexed).
  void IndexNode(NodeId node);
  /// Records a registered node's shape in `node_shapes_`.
  void AddNodeShape(int vcores, double memory_mb);
  /// Removes `node` from the placement index (no-op when not indexed).
  /// Must be called BEFORE mutating the node's free capacity or state.
  void UnindexNode(NodeId node);

  Container* AllocateOn(ApplicationId app, NodeId node, int vcores,
                        double memory_mb);

  /// The containers `match` selects, ascending container id.
  std::vector<Container> ContainersWhere(
      const std::function<bool(const Container&)>& match) const;
  /// A departing node's capacity leaves the pool (KillNode and
  /// DecommissionNode): unindexed, marked dead, cluster totals and every
  /// demand-satisfaction share re-derived.
  void RetireCapacity(NodeId node);

  /// Frees one container's resources and accounting; reports the loss to
  /// the owning AM only when `notify` (dead masters are never called).
  void DropContainer(const Container& c, ContainerLossReason reason,
                     bool notify);

  TenantStats& StatsOf(ApplicationId app);
  TenantStats& QueueStatsOf(ApplicationId app);
  void AddPending(ApplicationId app, const ContainerRequest& r);
  void RemovePending(ApplicationId app, const ContainerRequest& r);
  /// Queues `p` behind every pending request and schedules a pass.
  void Enqueue(PendingRequest p);
  /// `app`'s current fairness cell (empty for apps without stats).
  FairCell FairnessCellOf(ApplicationId app) const;
  /// Integrates the fairness index up to Now() from the incremental
  /// aggregates; call before any state change that affects shares or
  /// demand.
  void AccrueFairness();
  /// Re-derives one application's fairness cell after its usage or
  /// demand changed and folds the delta into the aggregates. No-op for
  /// departed/inactive applications.
  void FairnessTouch(ApplicationId app);
  /// Removes an application's fairness contribution (app deactivation).
  void FairnessDrop(ApplicationId app);
  /// Recomputes every cell and the aggregates from scratch: on cluster
  /// capacity changes (all shares move) and periodically to bound
  /// floating-point drift of the incremental +=/-= sums.
  void FairnessRebuild();

  Cluster* cluster_;
  YarnOptions options_;
  RmCounters counters_;
  std::vector<NodeState> nodes_;
  FlatHashMap<ApplicationId, AppState> apps_;
  FlatHashMap<ContainerId, Container> containers_;
  std::deque<PendingRequest> queue_;
  ApplicationId next_app_ = 1;
  ContainerId next_container_ = 1;
  bool pass_scheduled_ = false;
  /// Rotating start position for relaxed allocations: real YARN assigns
  /// containers as NodeManager heartbeats arrive, which spreads load
  /// across nodes instead of packing the lowest node ids.
  NodeId next_alloc_node_ = 0;

  // -- Placement index ----------------------------------------------------
  /// Alive, non-draining nodes with any free capacity, ordered by id so
  /// the rotating scan visits them exactly as the full fleet scan would.
  std::set<NodeId> open_nodes_;
  /// Free capacity of the indexed nodes; the maxima give O(1) "no node
  /// can hold this request" rejection.
  std::multiset<int> open_vcores_;
  std::multiset<double> open_memory_;

  // -- Multi-tenancy state ------------------------------------------------
  std::map<std::string, RmQueueConfig> queue_configs_;
  FlatHashMap<ApplicationId, TenantStats> app_stats_;
  FlatHashMap<std::string, TenantStats> queue_stats_;
  /// One open starvation episode per queue: `since` < 0 when the queue is
  /// not starved; `wakeup_scheduled` dedupes the grace-expiry timer that
  /// re-triggers an allocation pass (and with it a preemption round).
  struct QueueStarvation {
    double since = -1.0;
    bool wakeup_scheduled = false;
  };
  std::map<std::string, QueueStarvation> starvation_;
  AppFailureListener app_failure_listener_;
  int total_vcores_ = 0;
  double total_memory_mb_ = 0.0;
  /// Node shapes no other registered node dominates in both dimensions.
  struct NodeShape {
    int vcores;
    double memory_mb;
  };
  std::vector<NodeShape> node_shapes_;
  double fairness_integral_ = 0.0;
  double fairness_time_ = 0.0;
  double fairness_last_ = 0.0;
  /// Incremental fairness aggregates over the active applications' cells:
  /// Jain = (Σx)² / (n·Σx²), contended iff n >= 2 and someone is
  /// backlogged (see docs/scaling.md).
  struct FairnessAgg {
    double sum_x = 0.0;
    double sum_x2 = 0.0;
    int n = 0;
    int backlogged = 0;

    void Add(const FairCell& c) {
      sum_x += c.x;
      sum_x2 += c.x2;
      ++n;
      if (c.backlogged) ++backlogged;
    }
    void Remove(const FairCell& c) {
      sum_x -= c.x;
      sum_x2 -= c.x2;
      --n;
      if (c.backlogged) --backlogged;
    }
    bool contended() const { return n >= 2 && backlogged > 0; }
    double Jain() const {
      return sum_x2 <= 0.0
                 ? 1.0
                 : (sum_x * sum_x) / (static_cast<double>(n) * sum_x2);
    }
  };
  FairnessAgg fairness_agg_;
  uint64_t fairness_touches_ = 0;
  uint64_t passes_ = 0;
  uint64_t pass_wall_ns_ = 0;
  /// When set, runs instead of the policy's pass engine (test seam; see
  /// RmOracle). Never set in production.
  std::function<void(std::vector<PassSlot>&, const RmTenancyView&, int*)>
      pass_hook_;
  Tracer* tracer_ = nullptr;
};

}  // namespace hiway

#endif  // HIWAY_YARN_YARN_H_
