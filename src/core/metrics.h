// Resource-utilisation accounting for the Fig. 6 experiment.
//
// Worker-side numbers come directly from the flow network's integrals
// (CPU load like `uptime`, device busy fraction like `iostat`, NIC MB/s
// like `ifstat`). Master-side numbers come from an explicit cost model:
// each control-plane operation (NM heartbeat, container allocation,
// NameNode metadata op, AM scheduling decision, provenance write) charges
// a fixed CPU time and wire volume on the node hosting that process. The
// constants are stated here, not hidden, because Fig. 6's claim is about
// *orders of magnitude and trends*, not absolute values: master load grows
// with cluster size but stays far below saturation.

#ifndef HIWAY_CORE_METRICS_H_
#define HIWAY_CORE_METRICS_H_

#include "src/core/hiway_am.h"
#include "src/hdfs/dfs.h"
#include "src/sim/flow.h"
#include "src/yarn/yarn.h"

namespace hiway {

/// One role's utilisation triple (what Fig. 6 plots).
struct RoleUtilization {
  double cpu_load = 0.0;       // mean runnable demand, in cores
  double io_utilization = 0.0; // device busy fraction, 0..1
  double net_mbps = 0.0;       // mean NIC throughput, MB/s
};

/// Cost constants of the master-load model (seconds / bytes per op).
struct MasterCostModel {
  double rm_heartbeat_cpu_s = 0.0002;   // RM processing one NM heartbeat
  double rm_allocation_cpu_s = 0.0010;  // one container allocation
  double nn_metadata_cpu_s = 0.0005;    // one NameNode metadata op
  double nn_blockreport_cpu_s = 0.0004; // one DataNode block report
  double am_decision_cpu_s = 0.0020;    // one AM scheduling decision
  double am_provenance_cpu_s = 0.0020;  // one provenance event write (JSON
                                        // serialisation + HDFS append)
  double am_status_cpu_s = 0.0002;      // one container status update,
                                        // received per container per
                                        // AM-RM heartbeat

  double heartbeat_wire_bytes = 2048;   // NM heartbeat request+response
  double metadata_wire_bytes = 512;
  double decision_wire_bytes = 1024;

  double nm_heartbeat_period_s = 1.0;
  double blockreport_period_s = 3.0;
};

/// Aggregated inputs of the master-load model for one run.
struct MasterLoadInputs {
  double duration_s = 0.0;
  int num_workers = 0;
  RmCounters rm;
  DfsCounters dfs;
  int64_t am_decisions = 0;
  int64_t provenance_events = 0;
  /// Mean number of concurrently running containers (drives the AM's
  /// status-update processing load).
  double mean_running_containers = 0.0;
};

/// Computed master-process utilisation.
struct MasterLoad {
  RoleUtilization hadoop_master;  // RM + NameNode co-located (the paper's
                                  // "two Hadoop master threads" VM)
  RoleUtilization hiway_am;
};

MasterLoad ComputeMasterLoad(const MasterLoadInputs& inputs,
                             const MasterCostModel& model = MasterCostModel());

/// Mean utilisation of one worker node, read from the flow network.
RoleUtilization WorkerUtilization(const FlowNetwork& net,
                                  const Cluster& cluster, NodeId node);

/// Mean across a range of worker nodes [first, last].
RoleUtilization MeanWorkerUtilization(const FlowNetwork& net,
                                      const Cluster& cluster, NodeId first,
                                      NodeId last);

/// p-th percentile (p in [0, 100]) by nearest-rank over a copy of the
/// sample; 0.0 on an empty sample.
double Percentile(std::vector<double> xs, double p);

/// One RM queue's multi-tenancy summary (service mode, Sec. 3.1's "one AM
/// per workflow" run many-at-once): who is charged to the queue, what it
/// holds, and how long its container requests waited.
struct QueueLoadSummary {
  std::string queue;
  int applications = 0;         // apps ever charged to this queue
  int pending_requests = 0;     // open container requests right now
  ResourceUsage allocated;      // live containers held by the queue
  double allocated_vcore_share = 0.0;   // fraction of cluster vcores
  double allocated_memory_share = 0.0;  // fraction of cluster memory
  double mean_wait_s = 0.0;     // container request queue wait
  double p95_wait_s = 0.0;
  RmCounters counters;          // per-queue protocol counters
  // -- Guarantee enforcement (docs/scheduling-model.md) ------------------
  double time_under_guarantee_s = 0.0;  // total starved time
  int restoration_episodes = 0;         // closed starvation episodes
  double mean_restoration_s = 0.0;      // guarantee-restoration latency
  double p95_restoration_s = 0.0;
  /// Fraction of this queue's consumed container-seconds thrown away by
  /// preemption: counters.preempted_work_s / counters.container_work_s.
  double wasted_work_ratio = 0.0;
};

QueueLoadSummary SummarizeQueue(const ResourceManager& rm,
                                const std::string& queue);

/// Summaries for every configured queue, ascending by name.
std::vector<QueueLoadSummary> SummarizeQueues(const ResourceManager& rm);

}  // namespace hiway

#endif  // HIWAY_CORE_METRICS_H_
