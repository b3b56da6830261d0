// Workflow Scheduler framework (Sec. 3.4 of the paper).
//
// The Workflow Scheduler decides, above YARN's resource-level scheduling,
// which *task* runs in which *container*. Four policies from the paper:
//
//  * FCFS           — queue order, no placement preference.
//  * data-aware     — Hi-WAY's default: pick the pending task with the
//                     largest fraction of its input already local (in
//                     HDFS) to the node hosting the fresh container.
//  * round-robin    — static: tasks assigned to nodes in turn at onset.
//  * HEFT           — static and adaptive: placements minimise estimated
//                     finish times computed from provenance statistics.
//
// Static policies need the full task graph up front and are therefore
// incompatible with iterative (Cuneiform) workflows — the driver enforces
// this, mirroring the paper.

#ifndef HIWAY_CORE_SCHEDULER_H_
#define HIWAY_CORE_SCHEDULER_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/staging_cache.h"
#include "src/core/runtime_estimator.h"
#include "src/hdfs/dfs.h"
#include "src/lang/workflow.h"
#include "src/yarn/yarn.h"

namespace hiway {

/// Dependency edges of a static task graph: deps[t] = tasks t reads from.
using TaskDependencies = std::map<TaskId, std::vector<TaskId>>;

class WorkflowScheduler {
 public:
  virtual ~WorkflowScheduler() = default;

  virtual std::string name() const = 0;

  /// Static schedulers pre-build a full placement and pin containers.
  virtual bool IsStatic() const { return false; }

  /// Called once with the complete task graph (static schedulers only).
  /// `nodes` are the compute nodes that can actually host task containers
  /// (dedicated master VMs are excluded).
  virtual Status BuildStaticSchedule(const std::vector<TaskSpec>& tasks,
                                     const TaskDependencies& deps,
                                     const std::vector<NodeId>& nodes) {
    (void)tasks;
    (void)deps;
    (void)nodes;
    return Status::OK();
  }

  /// A task's data dependencies are met; it now awaits a container.
  virtual void EnqueueReady(const TaskSpec& task) = 0;

  /// The container request the AM should submit on behalf of this ready
  /// task. Note the allocated container is matched to *some* queued task
  /// by SelectTask, not necessarily this one.
  virtual ContainerRequest RequestFor(const TaskSpec& task) = 0;

  /// Picks (and removes) a queued task to run in a container on `node`;
  /// nullopt if no queued task may run there.
  virtual std::optional<TaskId> SelectTask(NodeId node) = 0;

  /// Removes a task from the queue without running it (e.g. workflow
  /// abort). Unknown ids are ignored.
  virtual void RemoveTask(TaskId id) = 0;

  virtual size_t QueuedCount() const = 0;
};

/// First-come-first-served: the policy "most established SWfMSs employ".
class FcfsScheduler : public WorkflowScheduler {
 public:
  std::string name() const override { return "fcfs"; }
  void EnqueueReady(const TaskSpec& task) override;
  ContainerRequest RequestFor(const TaskSpec& task) override;
  std::optional<TaskId> SelectTask(NodeId node) override;
  void RemoveTask(TaskId id) override;
  size_t QueuedCount() const override { return queue_.size(); }

 private:
  std::deque<TaskSpec> queue_;
};

/// Hi-WAY's default policy for I/O-intensive workflows: selects the task
/// with the highest fraction of input bytes already on the container's
/// node, minimising transfer over the switch. With a staging cache
/// attached, bytes a node retained from earlier stage-ins count as local
/// too — a cached copy is as cheap as an HDFS block replica, so warm
/// nodes attract the tasks whose inputs they already hold.
class DataAwareScheduler : public WorkflowScheduler {
 public:
  explicit DataAwareScheduler(Dfs* dfs,
                              const StagingCache* staging = nullptr)
      : dfs_(dfs), staging_(staging) {}
  std::string name() const override { return "data-aware"; }
  void EnqueueReady(const TaskSpec& task) override;
  ContainerRequest RequestFor(const TaskSpec& task) override;
  std::optional<TaskId> SelectTask(NodeId node) override;
  void RemoveTask(TaskId id) override;
  size_t QueuedCount() const override { return queue_.size(); }

 private:
  /// Bytes of `path` effectively local to `node`: HDFS block replicas or
  /// a fresh staging-cache copy, whichever is larger.
  int64_t EffectiveLocalBytes(const std::string& path, NodeId node) const;

  Dfs* dfs_;
  const StagingCache* staging_;
  std::deque<TaskSpec> queue_;  // FIFO among locality ties
};

/// Shared machinery of the static policies: BuildStaticSchedule fills
/// `assignment_`, ready tasks wait in their node's queue, and each
/// container is pinned to its task's node. Subclasses decide only the
/// order within a node's queue (EnqueueReady).
class StaticPlacementScheduler : public WorkflowScheduler {
 public:
  bool IsStatic() const override { return true; }
  ContainerRequest RequestFor(const TaskSpec& task) override;
  std::optional<TaskId> SelectTask(NodeId node) override;
  void RemoveTask(TaskId id) override;
  size_t QueuedCount() const override { return queued_; }

  /// Node a task was assigned to (tests / diagnostics).
  Result<NodeId> AssignedNode(TaskId id) const;

 protected:
  /// The ready queue of the node `task` is assigned to.
  std::deque<TaskSpec>& QueueOf(const TaskSpec& task);

  std::map<TaskId, NodeId> assignment_;
  std::map<NodeId, std::deque<TaskSpec>> ready_per_node_;
  size_t queued_ = 0;
};

/// Static round-robin: tasks are dealt to nodes in turn (topological
/// order), and each container is pinned to its task's node.
class RoundRobinScheduler : public StaticPlacementScheduler {
 public:
  std::string name() const override { return "round-robin"; }
  Status BuildStaticSchedule(const std::vector<TaskSpec>& tasks,
                             const TaskDependencies& deps,
                             const std::vector<NodeId>& nodes) override;
  void EnqueueReady(const TaskSpec& task) override;
};

/// Heterogeneous Earliest Finish Time [Topcuoglu et al. 2002], driven by
/// provenance-based runtime estimates. Upward ranks order the tasks;
/// each is placed on the node with the earliest estimated finish time.
/// Unobserved (signature, node) pairs estimate 0, encouraging exploration
/// exactly as described in Sec. 3.4.
class HeftScheduler : public StaticPlacementScheduler {
 public:
  explicit HeftScheduler(const RuntimeEstimator* estimator)
      : estimator_(estimator) {}
  std::string name() const override { return "heft"; }
  Status BuildStaticSchedule(const std::vector<TaskSpec>& tasks,
                             const TaskDependencies& deps,
                             const std::vector<NodeId>& nodes) override;
  /// Keeps each node's queue in decreasing rank order.
  void EnqueueReady(const TaskSpec& task) override;

  Result<double> UpwardRank(TaskId id) const;

 private:
  const RuntimeEstimator* estimator_;
  std::map<TaskId, double> rank_;
};

/// Online minimum-completion-time: a *dynamic* adaptive policy (the
/// paper's Sec. 3.4 notes such policies were "in the process of being
/// integrated"). No pre-built schedule: when a container on node n is
/// allocated, pick the queued task whose estimated runtime on n is lowest
/// relative to its mean across nodes — i.e. the task for which this node
/// is comparatively best — falling back to FIFO among unobserved tasks.
/// Unlike HEFT it tolerates iterative workflows, and unlike plain FCFS it
/// exploits provenance statistics without pinning placements.
/// Additionally, the policy *declines* a container when the node is
/// estimated markedly slower than average for every queued task
/// (SelectTask returns nullopt); the driver then hands the container back
/// and re-requests with the node blacklisted.
class OnlineMctScheduler : public WorkflowScheduler {
 public:
  /// `decline_threshold`: decline when even the best queued task is
  /// estimated this many times slower than its cross-node mean here.
  OnlineMctScheduler(const RuntimeEstimator* estimator, int num_nodes,
                     double decline_threshold = 1.5)
      : estimator_(estimator),
        num_nodes_(num_nodes),
        decline_threshold_(decline_threshold) {}
  std::string name() const override { return "online-mct"; }
  void EnqueueReady(const TaskSpec& task) override;
  ContainerRequest RequestFor(const TaskSpec& task) override;
  std::optional<TaskId> SelectTask(NodeId node) override;
  void RemoveTask(TaskId id) override;
  size_t QueuedCount() const override { return queue_.size(); }

 private:
  const RuntimeEstimator* estimator_;
  int num_nodes_;
  double decline_threshold_;
  int declines_since_dispatch_ = 0;
  std::deque<TaskSpec> queue_;
};

/// Factory: "fcfs", "data-aware", "round-robin", "heft", "online-mct".
/// `staging` (optional) lets the data-aware policy rank staging-cache
/// copies alongside HDFS block locality.
Result<std::unique_ptr<WorkflowScheduler>> MakeScheduler(
    const std::string& policy, Dfs* dfs, const RuntimeEstimator* estimator,
    const StagingCache* staging = nullptr);

}  // namespace hiway

#endif  // HIWAY_CORE_SCHEDULER_H_
