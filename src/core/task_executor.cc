#include "src/core/task_executor.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace hiway {

namespace {
constexpr double kBytesPerMb = 1024.0 * 1024.0;
}

// ------------------------------------------------------ DfsStorageAdapter -

Result<int64_t> DfsStorageAdapter::FileSize(const std::string& path) const {
  HIWAY_ASSIGN_OR_RETURN(DfsFileInfo info, dfs_->Stat(path));
  return info.size_bytes;
}

void DfsStorageAdapter::StageIn(
    const std::string& path, NodeId node,
    std::function<void(Status, int64_t, double)> done) {
  auto info = dfs_->Stat(path);
  if (!info.ok()) {
    Status st = info.status();
    dfs_->cluster()->engine()->ScheduleAfter(
        0.0, [done = std::move(done), st] { done(st, 0, 0.0); });
    return;
  }
  int64_t bytes = info->size_bytes;
  uint64_t content = info->content_id;
  FileId file = dfs_->Intern(path);
  SimEngine* engine = dfs_->cluster()->engine();
  if (staging_ != nullptr && staging_->HitAndPin(node, file, content)) {
    // The node already holds this exact content from an earlier task or
    // workflow: no DFS read, the stage-in is free. Pinned until the
    // attempt releases its inputs.
    engine->ScheduleAfter(0.0, [done = std::move(done), bytes] {
      done(Status::OK(), bytes, 0.0);
    });
    return;
  }
  double started = engine->Now();
  StagingCache* staging = staging_;
  dfs_->ReadToNode(path, node,
                   [done = std::move(done), file, node, bytes, content,
                    started, engine, staging](Status st) {
                     if (st.ok() && staging != nullptr) {
                       // Keep the fresh local copy for later attempts on
                       // this node (pinned: the reader uses it now).
                       staging->InsertPinned(node, file, content, bytes);
                     }
                     done(st, bytes, engine->Now() - started);
                   });
}

void DfsStorageAdapter::ReleaseInputs(const std::vector<std::string>& paths,
                                      NodeId node) {
  if (staging_ == nullptr) return;
  for (const std::string& path : paths) {
    staging_->Unpin(node, dfs_->Intern(path));
  }
}

void DfsStorageAdapter::StageOut(const std::string& path, int64_t size_bytes,
                                 NodeId node,
                                 std::function<void(Status)> done) {
  // Output-committer semantics: a retried attempt replaces whatever a
  // previous attempt of the same task left behind (HDFS-side this is a
  // temp-file + rename; here the metadata swap suffices).
  if (dfs_->Exists(path)) {
    (void)dfs_->Delete(path);
  }
  dfs_->WriteFromNode(path, size_bytes, node, std::move(done));
}

void DfsStorageAdapter::ScratchIo(double scratch_mb, NodeId node,
                                  std::function<void(Status)> done) {
  // Hi-WAY scratch hits the node-local disk ("both HDFS as well as the
  // storage of YARN containers reside on the local file system").
  FlowSpec spec;
  spec.resources = dfs_->cluster()->LocalDiskPath(node);
  spec.demand = std::max(scratch_mb, 1e-6);
  spec.on_complete = [done = std::move(done)] { done(Status::OK()); };
  dfs_->cluster()->net()->StartFlow(std::move(spec));
}

// --------------------------------------------- SharedVolumeStorageAdapter -

Result<int64_t> SharedVolumeStorageAdapter::FileSize(
    const std::string& path) const {
  auto it = catalog_.find(path);
  if (it == catalog_.end()) {
    return Status::NotFound("no such file on shared volume: " + path);
  }
  return it->second;
}

void SharedVolumeStorageAdapter::StageIn(
    const std::string& path, NodeId node,
    std::function<void(Status, int64_t, double)> done) {
  auto it = catalog_.find(path);
  if (it == catalog_.end()) {
    Status st = Status::NotFound("no such file on shared volume: " + path);
    cluster_->engine()->ScheduleAfter(
        0.0, [done = std::move(done), st] { done(st, 0, 0.0); });
    return;
  }
  int64_t bytes = it->second;
  double started = cluster_->engine()->Now();
  SimEngine* engine = cluster_->engine();
  FlowSpec spec;
  spec.resources = cluster_->EbsPath(node);
  spec.demand = std::max(static_cast<double>(bytes) / kBytesPerMb, 1e-6);
  spec.rate_cap = client_mbps_;
  spec.on_complete = [done = std::move(done), bytes, started, engine] {
    done(Status::OK(), bytes, engine->Now() - started);
  };
  cluster_->net()->StartFlow(std::move(spec));
}

void SharedVolumeStorageAdapter::StageOut(const std::string& path,
                                          int64_t size_bytes, NodeId node,
                                          std::function<void(Status)> done) {
  catalog_[path] = size_bytes;
  FlowSpec spec;
  spec.resources = cluster_->EbsPath(node);
  spec.demand = std::max(static_cast<double>(size_bytes) / kBytesPerMb, 1e-6);
  spec.rate_cap = client_mbps_;
  spec.on_complete = [done = std::move(done)] { done(Status::OK()); };
  cluster_->net()->StartFlow(std::move(spec));
}

void SharedVolumeStorageAdapter::ScratchIo(double scratch_mb, NodeId node,
                                           std::function<void(Status)> done) {
  // CloudMan keeps even transient data on the shared volume (the paper
  // attributes the Fig. 8 gap exactly to this).
  FlowSpec spec;
  spec.resources = cluster_->EbsPath(node);
  spec.demand = std::max(scratch_mb, 1e-6);
  spec.rate_cap = client_mbps_;
  spec.on_complete = [done = std::move(done)] { done(Status::OK()); };
  cluster_->net()->StartFlow(std::move(spec));
}

void SharedVolumeStorageAdapter::AddFile(const std::string& path,
                                         int64_t size_bytes) {
  catalog_[path] = size_bytes;
}

bool SharedVolumeStorageAdapter::Exists(const std::string& path) const {
  return catalog_.find(path) != catalog_.end();
}

// ------------------------------------------------------------ TaskExecutor -

struct TaskExecutor::Attempt {
  TaskSpec task;
  NodeId node = kInvalidNode;
  int vcores = 1;
  std::function<void(TaskAttemptOutcome)> done;
  TaskAttemptOutcome outcome;
  const ToolProfile* profile = nullptr;
  int prior_invocations = 0;
  int64_t input_bytes = 0;
  int stage_in_pending = 0;
  Status stage_in_status;
  double stage_in_started = 0.0;
  double stage_out_started = 0.0;
  int stage_out_pending = 0;
  bool delivered = false;
};

void TaskExecutor::Execute(const TaskSpec& task, NodeId node, int vcores,
                           std::function<void(TaskAttemptOutcome)> done) {
  auto attempt = std::make_shared<Attempt>();
  attempt->task = task;
  attempt->node = node;
  attempt->vcores = std::max(vcores, 1);
  attempt->done = std::move(done);
  attempt->outcome.result.id = task.id;
  attempt->outcome.result.signature = task.signature;
  attempt->outcome.result.node = node;
  attempt->outcome.result.started_at = cluster_->engine()->Now();

  auto profile = tools_->FindForInvocation(task.ToolName(),
                                           &attempt->prior_invocations);
  if (!profile.ok()) {
    Finish(attempt, profile.status());
    return;
  }
  attempt->profile = *profile;
  StartStageIn(attempt);
}

void TaskExecutor::StartStageIn(std::shared_ptr<Attempt> attempt) {
  attempt->stage_in_started = cluster_->engine()->Now();
  if (attempt->task.input_files.empty()) {
    StartInvoke(attempt);
    return;
  }
  attempt->stage_in_pending =
      static_cast<int>(attempt->task.input_files.size());
  for (const std::string& path : attempt->task.input_files) {
    storage_->StageIn(
        path, attempt->node,
        [this, attempt, path](Status st, int64_t bytes, double seconds) {
          attempt->input_bytes += bytes;
          attempt->outcome.transfers.push_back(
              TaskAttemptOutcome::FileTransfer{path, bytes, seconds, true});
          if (!st.ok() && attempt->stage_in_status.ok()) {
            attempt->stage_in_status = st;
          }
          if (--attempt->stage_in_pending == 0) {
            attempt->outcome.result.stage_in_seconds =
                cluster_->engine()->Now() - attempt->stage_in_started;
            if (!attempt->stage_in_status.ok()) {
              Finish(attempt, attempt->stage_in_status.WithContext(
                                  "stage-in failed"));
            } else {
              StartInvoke(attempt);
            }
          }
        });
  }
}

void TaskExecutor::StartInvoke(std::shared_ptr<Attempt> attempt) {
  const ToolProfile& profile = *attempt->profile;
  double input_mb = static_cast<double>(attempt->input_bytes) / kBytesPerMb;
  double work =
      profile.fixed_cpu_seconds + profile.cpu_seconds_per_mb * input_mb;
  if (profile.runtime_noise_sigma > 0.0) {
    work *= rng_.LogNormal(1.0, profile.runtime_noise_sigma);
  }
  // Node heterogeneity: faster nodes burn through core-seconds quicker.
  double speed = cluster_->node(attempt->node).speed_factor;
  if (speed > 0.0) work /= speed;
  // A profile registered with max_threads <= 0 still runs on one thread.
  double threads = static_cast<double>(
      std::max(1, std::min(profile.max_threads, attempt->vcores)));
  double scratch_mb = profile.scratch_mb_per_input_mb * input_mb;

  FlowSpec spec;
  spec.resources = {cluster_->cpu(attempt->node)};
  spec.demand = std::max(work, 1e-6);
  spec.rate_cap = threads;
  spec.on_complete = [this, attempt, scratch_mb] {
    // Transient tool failures surface after the compute phase (a crashed
    // tool has already burned its runtime).
    if (attempt->profile->failure_probability > 0.0 &&
        rng_.NextDouble() < attempt->profile->failure_probability) {
      Finish(attempt,
             Status::RuntimeError(StrFormat(
                 "tool %s exited non-zero (injected transient failure)",
                 attempt->profile->name.c_str())));
      return;
    }
    if (scratch_mb > 0.0) {
      StartScratch(attempt, scratch_mb);
    } else {
      StartStageOut(attempt);
    }
  };
  cluster_->net()->StartFlow(std::move(spec));
}

void TaskExecutor::StartScratch(std::shared_ptr<Attempt> attempt,
                                double scratch_mb) {
  storage_->ScratchIo(scratch_mb, attempt->node,
                      [this, attempt](Status st) {
                        if (!st.ok()) {
                          Finish(attempt, st.WithContext("scratch I/O failed"));
                          return;
                        }
                        StartStageOut(attempt);
                      });
}

void TaskExecutor::StartStageOut(std::shared_ptr<Attempt> attempt) {
  // Synthesize stdout before stage-out so value-only tasks still work.
  const ToolProfile& profile = *attempt->profile;
  if (profile.stdout_fn) {
    ToolInvocation inv;
    inv.task = &attempt->task;
    inv.prior_invocations = attempt->prior_invocations;
    inv.input_bytes = attempt->input_bytes;
    attempt->outcome.result.stdout_value = profile.stdout_fn(inv);
  }

  attempt->stage_out_started = cluster_->engine()->Now();

  // Determine file output sizes.
  std::vector<std::pair<std::string, int64_t>> files;
  int file_outputs = 0;
  for (const OutputSpec& out : attempt->task.outputs) {
    if (!out.is_value) ++file_outputs;
  }
  // Task-level output-ratio override (e.g. cram=1 experiments).
  double ratio = profile.output_ratio;
  auto ratio_param = attempt->task.params.find("output_ratio");
  if (ratio_param != attempt->task.params.end()) {
    auto parsed = ParseDouble(ratio_param->second);
    if (parsed.ok()) ratio = *parsed;
  }
  for (const OutputSpec& out : attempt->task.outputs) {
    if (out.is_value) continue;
    int64_t size;
    if (out.size_bytes.has_value()) {
      size = *out.size_bytes;
    } else {
      double param_ratio = ratio / std::max(file_outputs, 1);
      auto it = profile.output_ratio_by_param.find(out.param);
      if (it != profile.output_ratio_by_param.end()) param_ratio = it->second;
      size = static_cast<int64_t>(
          static_cast<double>(attempt->input_bytes) * param_ratio);
    }
    size = std::max(size, profile.min_output_bytes);
    files.emplace_back(out.path, size);
  }

  if (files.empty()) {
    Finish(attempt, Status::OK());
    return;
  }
  attempt->stage_out_pending = static_cast<int>(files.size());
  for (const auto& [path, size] : files) {
    attempt->outcome.result.produced_files.emplace_back(path, size);
    double flow_started = cluster_->engine()->Now();
    std::string path_copy = path;
    int64_t size_copy = size;
    storage_->StageOut(
        path, size, attempt->node,
        [this, attempt, path_copy, size_copy, flow_started](Status st) {
          attempt->outcome.transfers.push_back(
              TaskAttemptOutcome::FileTransfer{
                  path_copy, size_copy,
                  cluster_->engine()->Now() - flow_started, false});
          if (!st.ok()) {
            Finish(attempt, st.WithContext("stage-out failed"));
            return;
          }
          if (--attempt->stage_out_pending == 0) {
            attempt->outcome.result.stage_out_seconds =
                cluster_->engine()->Now() - attempt->stage_out_started;
            Finish(attempt, Status::OK());
          }
        });
  }
}

void TaskExecutor::Finish(std::shared_ptr<Attempt> attempt, Status status) {
  if (attempt->delivered) return;
  attempt->delivered = true;
  // The attempt is done with its localized inputs either way; a staging
  // cache may now evict them under pressure.
  storage_->ReleaseInputs(attempt->task.input_files, attempt->node);
  attempt->outcome.result.status = status;
  attempt->outcome.result.finished_at = cluster_->engine()->Now();
  // Deliver asynchronously so AM state updates never nest inside flow
  // completion callbacks.
  auto outcome = std::make_shared<TaskAttemptOutcome>(
      std::move(attempt->outcome));
  auto done = std::move(attempt->done);
  cluster_->engine()->ScheduleAfter(
      0.0, [done = std::move(done), outcome] { done(std::move(*outcome)); });
}

}  // namespace hiway
