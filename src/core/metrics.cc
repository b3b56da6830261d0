#include "src/core/metrics.h"

#include <algorithm>
#include <cmath>

namespace hiway {

MasterLoad ComputeMasterLoad(const MasterLoadInputs& inputs,
                             const MasterCostModel& model) {
  MasterLoad out;
  if (inputs.duration_s <= 0.0) return out;
  double dur = inputs.duration_s;
  double n = static_cast<double>(inputs.num_workers);

  // ResourceManager: periodic NM heartbeats plus allocation churn.
  double heartbeats = n * dur / model.nm_heartbeat_period_s;
  double rm_cpu_s =
      heartbeats * model.rm_heartbeat_cpu_s +
      static_cast<double>(inputs.rm.allocations + inputs.rm.requests +
                          inputs.rm.releases) *
          model.rm_allocation_cpu_s;

  // NameNode: metadata ops plus periodic block reports.
  double block_reports = n * dur / model.blockreport_period_s;
  double nn_cpu_s =
      static_cast<double>(inputs.dfs.metadata_ops) * model.nn_metadata_cpu_s +
      block_reports * model.nn_blockreport_cpu_s;

  out.hadoop_master.cpu_load = (rm_cpu_s + nn_cpu_s) / dur;
  double master_wire =
      heartbeats * model.heartbeat_wire_bytes +
      static_cast<double>(inputs.dfs.metadata_ops) *
          model.metadata_wire_bytes;
  out.hadoop_master.net_mbps = master_wire / dur / (1024.0 * 1024.0);
  // Masters do little disk I/O beyond edit logs; model as proportional to
  // metadata mutation rate against a 100 MB/s log device.
  out.hadoop_master.io_utilization =
      std::min(1.0, static_cast<double>(inputs.dfs.metadata_ops) * 512.0 /
                        dur / (100.0 * 1024.0 * 1024.0) * 100.0);

  // Hi-WAY AM: scheduling decisions, provenance writes, and container
  // status updates arriving with every AM-RM heartbeat.
  double am_cpu_s =
      static_cast<double>(inputs.am_decisions) * model.am_decision_cpu_s +
      static_cast<double>(inputs.provenance_events) *
          model.am_provenance_cpu_s +
      inputs.mean_running_containers * dur / model.nm_heartbeat_period_s *
          model.am_status_cpu_s;
  out.hiway_am.cpu_load = am_cpu_s / dur;
  out.hiway_am.net_mbps = static_cast<double>(inputs.am_decisions) *
                          model.decision_wire_bytes / dur /
                          (1024.0 * 1024.0);
  out.hiway_am.io_utilization =
      std::min(1.0, static_cast<double>(inputs.provenance_events) * 1024.0 /
                        dur / (100.0 * 1024.0 * 1024.0) * 100.0);
  return out;
}

RoleUtilization WorkerUtilization(const FlowNetwork& net,
                                  const Cluster& cluster, NodeId node) {
  RoleUtilization out;
  out.cpu_load = net.Stats(cluster.cpu(node)).mean_rate;
  out.io_utilization = net.Stats(cluster.disk(node)).busy_fraction;
  out.net_mbps = net.Stats(cluster.nic(node)).mean_rate;
  return out;
}

RoleUtilization MeanWorkerUtilization(const FlowNetwork& net,
                                      const Cluster& cluster, NodeId first,
                                      NodeId last) {
  RoleUtilization out;
  int count = 0;
  for (NodeId n = first; n <= last; ++n) {
    RoleUtilization u = WorkerUtilization(net, cluster, n);
    out.cpu_load += u.cpu_load;
    out.io_utilization += u.io_utilization;
    out.net_mbps += u.net_mbps;
    ++count;
  }
  if (count > 0) {
    out.cpu_load /= count;
    out.io_utilization /= count;
    out.net_mbps /= count;
  }
  return out;
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (p <= 0.0) return xs.front();
  if (p >= 100.0) return xs.back();
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  if (rank == 0) rank = 1;
  return xs[rank - 1];
}

QueueLoadSummary SummarizeQueue(const ResourceManager& rm,
                                const std::string& queue) {
  QueueLoadSummary out;
  out.queue = queue;
  for (ApplicationId app : rm.KnownApplications()) {
    const TenantStats* stats = rm.app_stats(app);
    if (stats != nullptr && stats->queue == queue) ++out.applications;
  }
  const TenantStats* stats = rm.queue_stats(queue);
  if (stats == nullptr) return out;
  out.pending_requests = stats->pending_requests;
  out.allocated = stats->usage;
  if (rm.total_vcores() > 0) {
    out.allocated_vcore_share =
        static_cast<double>(stats->usage.vcores) / rm.total_vcores();
  }
  if (rm.total_memory_mb() > 0.0) {
    out.allocated_memory_share = stats->usage.memory_mb / rm.total_memory_mb();
  }
  if (!stats->wait_times_s.empty()) {
    double sum = 0.0;
    for (double w : stats->wait_times_s) sum += w;
    out.mean_wait_s = sum / static_cast<double>(stats->wait_times_s.size());
    out.p95_wait_s = Percentile(stats->wait_times_s, 95.0);
  }
  out.counters = stats->counters;
  out.time_under_guarantee_s = stats->time_under_guarantee_s;
  out.restoration_episodes =
      static_cast<int>(stats->restoration_latency_s.size());
  if (!stats->restoration_latency_s.empty()) {
    double sum = 0.0;
    for (double r : stats->restoration_latency_s) sum += r;
    out.mean_restoration_s =
        sum / static_cast<double>(stats->restoration_latency_s.size());
    out.p95_restoration_s = Percentile(stats->restoration_latency_s, 95.0);
  }
  if (stats->counters.container_work_s > 0.0) {
    out.wasted_work_ratio =
        stats->counters.preempted_work_s / stats->counters.container_work_s;
  }
  return out;
}

std::vector<QueueLoadSummary> SummarizeQueues(const ResourceManager& rm) {
  std::vector<QueueLoadSummary> out;
  for (const std::string& queue : rm.ConfiguredQueues()) {
    out.push_back(SummarizeQueue(rm, queue));
  }
  return out;
}

}  // namespace hiway
