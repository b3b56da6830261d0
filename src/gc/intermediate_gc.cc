#include "src/gc/intermediate_gc.h"

#include "src/cache/result_cache.h"
#include "src/common/logging.h"

namespace hiway {

void IntermediateGc::BeginScope(const std::string& run_id, bool is_static) {
  auto [it, inserted] = scopes_.emplace(run_id, Scope{});
  if (!inserted) return;  // idempotent: a retried Submit reuses the scope
  it->second.is_static = is_static;
  ++stats_.scopes_opened;
}

void IntermediateGc::SetTargets(const std::string& run_id,
                                const std::vector<std::string>& targets) {
  auto it = scopes_.find(run_id);
  if (it == scopes_.end()) return;
  for (const std::string& path : targets) {
    Touch(it->second, dfs_->Intern(path)).target = true;
  }
}

IntermediateGc::FileState& IntermediateGc::Touch(Scope& scope, FileId file) {
  auto [it, inserted] = scope.files.emplace(file, FileState{});
  if (inserted) {
    size_t f = static_cast<size_t>(file);
    if (f >= interest_.size()) interest_.resize(f + 1);
    ++interest_[f];
  }
  return it->second;
}

void IntermediateGc::AddLive(Scope& scope, FileState& file) {
  if (file.counted_live) return;
  file.counted_live = true;
  scope.live_bytes += file.size_bytes;
  if (scope.live_bytes > scope.peak_live_bytes) {
    scope.peak_live_bytes = scope.live_bytes;
  }
}

void IntermediateGc::RegisterConsumer(const std::string& run_id, TaskId task,
                                      const std::vector<FileId>& inputs) {
  auto it = scopes_.find(run_id);
  if (it == scopes_.end()) return;
  Scope& scope = it->second;
  std::vector<FileId>& recorded = scope.task_inputs[task];
  for (FileId id : inputs) {
    FileState& file = Touch(scope, id);
    if (file.waiting_consumers.insert(task).second) recorded.push_back(id);
    // Staged external inputs (present in DFS, not produced here) count
    // toward the scope's live footprint from first reference; they are
    // never collected, only accounted.
    if (!file.produced && !file.counted_live) {
      auto stat = dfs_->Stat(dfs_->PathOf(id));
      if (stat.ok()) {
        file.size_bytes = stat->size_bytes;
        AddLive(scope, file);
      }
    }
  }
}

void IntermediateGc::RegisterProduced(const std::string& run_id, FileId id,
                                      int64_t size_bytes) {
  auto it = scopes_.find(run_id);
  if (it == scopes_.end()) return;
  Scope& scope = it->second;
  FileState& file = Touch(scope, id);
  file.produced = true;
  file.collected = false;
  if (file.counted_live && file.size_bytes != size_bytes) {
    // Re-produced at a different size (e.g. failover re-execution).
    scope.live_bytes += size_bytes - file.size_bytes;
  }
  file.size_bytes = size_bytes;
  AddLive(scope, file);
  // An output nothing consumes and nobody targets is dead on arrival
  // (Makeflow's "garbage at creation" case).
  MaybeCollect(scope, id, /*final_pass=*/false);
}

void IntermediateGc::OnConsumerDone(const std::string& run_id, TaskId task) {
  auto it = scopes_.find(run_id);
  if (it == scopes_.end()) return;
  Scope& scope = it->second;
  auto inputs = scope.task_inputs.find(task);
  if (inputs == scope.task_inputs.end()) return;
  for (FileId id : inputs->second) {
    scope.files.at(id).waiting_consumers.erase(task);
    MaybeCollect(scope, id, /*final_pass=*/false);
  }
  scope.task_inputs.erase(task);
}

void IntermediateGc::MaybeCollect(Scope& scope, FileId id, bool final_pass) {
  auto it = scope.files.find(id);
  if (it == scope.files.end()) return;
  FileState& file = it->second;
  if (!file.produced || file.collected || file.target) return;
  if (!file.waiting_consumers.empty()) return;
  // Online collection is safe only for static, live scopes: iterative
  // sources may still discover consumers, and a dormant (crashed) scope
  // must not delete files its replacement is about to re-pin.
  if (!final_pass && (!scope.is_static || scope.dormant)) return;
  // Another live scope references the file (cross-submission sharing).
  if (interest_[static_cast<size_t>(id)] > 1) return;
  if (cache_ != nullptr && cache_->PinsFile(id)) {
    if (!file.deferred) ++stats_.cache_deferrals;
    file.deferred = true;
    return;
  }
  const std::string& path = dfs_->PathOf(id);
  Status st = dfs_->Delete(path);
  // NotFound is fine: the file may have been superseded or never landed.
  if (!st.ok() && !st.IsNotFound()) {
    HIWAY_LOG_WARN << "gc: delete of " << path << " failed: " << st.message();
    return;
  }
  file.collected = true;
  file.deferred = false;
  if (file.counted_live) {
    file.counted_live = false;
    scope.live_bytes -= file.size_bytes;
  }
  ++scope.files_collected;
  scope.bytes_collected += file.size_bytes;
  ++stats_.files_collected;
  stats_.bytes_collected += file.size_bytes;
}

void IntermediateGc::MarkDormant(const std::string& run_id) {
  auto it = scopes_.find(run_id);
  if (it != scopes_.end()) it->second.dormant = true;
}

GcScopeReport IntermediateGc::EndScope(const std::string& run_id) {
  GcScopeReport report;
  auto it = scopes_.find(run_id);
  if (it == scopes_.end()) return report;
  Scope& scope = it->second;
  // Final pass: by now the consumer set is complete (static or not), so
  // anything dead, untargeted, unshared, and unpinned goes. Cache-pinned
  // files are intentionally left behind — the sealed entry owns them.
  for (auto& [id, file] : scope.files) {
    (void)file;
    MaybeCollect(scope, id, /*final_pass=*/true);
  }
  report.peak_live_bytes = scope.peak_live_bytes;
  report.files_collected = scope.files_collected;
  report.bytes_collected = scope.bytes_collected;
  for (const auto& [id, file] : scope.files) {
    (void)file;
    --interest_[static_cast<size_t>(id)];
  }
  scopes_.erase(it);
  ++stats_.scopes_ended;
  return report;
}

int64_t IntermediateGc::Sweep() {
  ++stats_.sweeps;
  int64_t before = stats_.files_collected;
  for (auto& [run_id, scope] : scopes_) {
    (void)run_id;
    for (auto& [id, file] : scope.files) {
      if (file.deferred) MaybeCollect(scope, id, /*final_pass=*/false);
    }
  }
  return stats_.files_collected - before;
}

bool IntermediateGc::HasScope(const std::string& run_id) const {
  return scopes_.find(run_id) != scopes_.end();
}

}  // namespace hiway
