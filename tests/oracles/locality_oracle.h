// Test-only reference for DataAwareScheduler: the path-based locality scan
// the production scheduler replaced.
//
// The oracle keeps full TaskSpec copies and, on every grant, asks the DFS
// by path: Stat for each input's size, LocalBytes for its replicas on the
// node, and ContentId for the staging cache's fingerprint check (the
// cache itself is keyed by FileId, so the oracle interns there). That is
// the paper's "skims through all tasks pending execution" (Sec. 3.4)
// taken literally. DataAwareScheduler reads the same quantities by
// interned FileId (src/hdfs/dfs.h), so for any sequence of enqueues,
// removals and replica churn both must pick the same task and prefer
// the same node (scheduler_test.cc, DataAwareLockstepTest).

#ifndef HIWAY_TESTS_ORACLES_LOCALITY_ORACLE_H_
#define HIWAY_TESTS_ORACLES_LOCALITY_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <deque>
#include <optional>
#include <string>

#include "src/core/scheduler.h"

namespace hiway {

class PathScanLocalityOracle : public WorkflowScheduler {
 public:
  explicit PathScanLocalityOracle(Dfs* dfs,
                                  const StagingCache* staging = nullptr)
      : dfs_(dfs), staging_(staging) {}

  std::string name() const override { return "data-aware-oracle"; }

  void EnqueueReady(const TaskSpec& task) override { queue_.push_back(task); }

  ContainerRequest RequestFor(const TaskSpec& task) override {
    ContainerRequest r;
    r.vcores = task.vcores;
    r.memory_mb = task.memory_mb;
    int64_t best_bytes = -1;
    NodeId best_node = kInvalidNode;
    for (NodeId n = 0; n < dfs_->cluster()->num_nodes(); ++n) {
      int64_t local = 0;
      for (const std::string& path : task.input_files) {
        local += EffectiveLocalBytes(path, n);
      }
      if (local > best_bytes) {
        best_bytes = local;
        best_node = n;
      }
    }
    if (best_bytes > 0) r.preferred_node = best_node;
    return r;
  }

  std::optional<TaskId> SelectTask(NodeId node) override {
    if (queue_.empty()) return std::nullopt;
    double best_fraction = -1.0;
    size_t best_index = 0;
    for (size_t i = 0; i < queue_.size(); ++i) {
      int64_t total = 0;
      int64_t local = 0;
      for (const std::string& path : queue_[i].input_files) {
        auto info = dfs_->Stat(path);
        if (info.ok()) total += info->size_bytes;
        local += EffectiveLocalBytes(path, node);
      }
      double fraction =
          total > 0 ? static_cast<double>(local) / static_cast<double>(total)
                    : 0.0;
      if (fraction > best_fraction + 1e-12) {
        best_fraction = fraction;
        best_index = i;
      }
    }
    TaskId id = queue_[best_index].id;
    queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(best_index));
    return id;
  }

  void RemoveTask(TaskId id) override {
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [id](const TaskSpec& t) { return t.id == id; }),
                 queue_.end());
  }

  size_t QueuedCount() const override { return queue_.size(); }

 private:
  int64_t EffectiveLocalBytes(const std::string& path, NodeId node) const {
    int64_t local = dfs_->LocalBytes(path, node);
    if (staging_ != nullptr) {
      local = std::max(
          local, staging_->CachedBytes(dfs_->Intern(path),
                                       dfs_->ContentId(path), node));
    }
    return local;
  }

  Dfs* dfs_;
  const StagingCache* staging_;
  std::deque<TaskSpec> queue_;
};

}  // namespace hiway

#endif  // HIWAY_TESTS_ORACLES_LOCALITY_ORACLE_H_
