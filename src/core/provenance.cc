#include "src/core/provenance.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace hiway {

std::string_view ProvenanceEventTypeToString(ProvenanceEventType type) {
  switch (type) {
    case ProvenanceEventType::kWorkflowStart:
      return "workflow-start";
    case ProvenanceEventType::kWorkflowEnd:
      return "workflow-end";
    case ProvenanceEventType::kTaskStart:
      return "task-start";
    case ProvenanceEventType::kTaskEnd:
      return "task-end";
    case ProvenanceEventType::kFileStageIn:
      return "file-stage-in";
    case ProvenanceEventType::kFileStageOut:
      return "file-stage-out";
    case ProvenanceEventType::kTaskCacheHit:
      return "task-cache-hit";
  }
  return "unknown";
}

Result<ProvenanceEventType> ProvenanceEventTypeFromString(
    std::string_view s) {
  if (s == "workflow-start") return ProvenanceEventType::kWorkflowStart;
  if (s == "workflow-end") return ProvenanceEventType::kWorkflowEnd;
  if (s == "task-start") return ProvenanceEventType::kTaskStart;
  if (s == "task-end") return ProvenanceEventType::kTaskEnd;
  if (s == "file-stage-in") return ProvenanceEventType::kFileStageIn;
  if (s == "file-stage-out") return ProvenanceEventType::kFileStageOut;
  if (s == "task-cache-hit") return ProvenanceEventType::kTaskCacheHit;
  return Status::ParseError("unknown provenance event type: " +
                            std::string(s));
}

Json ProvenanceEvent::ToJson() const {
  Json obj = Json::MakeObject();
  obj.Set("type", std::string(ProvenanceEventTypeToString(type)));
  obj.Set("run_id", run_id);
  if (seq >= 0) obj.Set("seq", seq);
  obj.Set("timestamp", timestamp);
  switch (type) {
    case ProvenanceEventType::kWorkflowStart:
      obj.Set("workflow", workflow_name);
      break;
    case ProvenanceEventType::kWorkflowEnd:
      obj.Set("workflow", workflow_name);
      obj.Set("total_runtime", total_runtime);
      obj.Set("success", success);
      break;
    case ProvenanceEventType::kTaskStart:
      obj.Set("task_id", task_id);
      obj.Set("signature", signature);
      obj.Set("command", command);
      obj.Set("tool", tool);
      obj.Set("node", static_cast<int64_t>(node));
      obj.Set("node_name", node_name);
      break;
    case ProvenanceEventType::kTaskEnd:
      obj.Set("task_id", task_id);
      obj.Set("signature", signature);
      obj.Set("command", command);
      obj.Set("node", static_cast<int64_t>(node));
      obj.Set("node_name", node_name);
      obj.Set("duration", duration);
      obj.Set("success", success);
      if (!stdout_value.empty()) obj.Set("stdout", stdout_value);
      break;
    case ProvenanceEventType::kFileStageIn:
    case ProvenanceEventType::kFileStageOut:
      obj.Set("task_id", task_id);
      obj.Set("file", file_path);
      obj.Set("size_bytes", size_bytes);
      obj.Set("transfer_seconds", transfer_seconds);
      break;
    case ProvenanceEventType::kTaskCacheHit:
      obj.Set("task_id", task_id);
      obj.Set("signature", signature);
      obj.Set("source_run", source_run_id);
      obj.Set("duration", duration);
      break;
  }
  return obj;
}

Result<ProvenanceEvent> ProvenanceEvent::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::ParseError("provenance event must be a JSON object");
  }
  ProvenanceEvent ev;
  HIWAY_ASSIGN_OR_RETURN(
      ev.type, ProvenanceEventTypeFromString(json.GetString("type")));
  ev.run_id = json.GetString("run_id");
  ev.seq = json.GetInt("seq", -1);
  ev.timestamp = json.GetNumber("timestamp");
  ev.workflow_name = json.GetString("workflow");
  ev.total_runtime = json.GetNumber("total_runtime");
  ev.success = json.GetBool("success", true);
  ev.task_id = json.GetInt("task_id", kInvalidTask);
  ev.signature = json.GetString("signature");
  ev.command = json.GetString("command");
  ev.tool = json.GetString("tool");
  ev.node = static_cast<int32_t>(json.GetInt("node", -1));
  ev.node_name = json.GetString("node_name");
  ev.duration = json.GetNumber("duration");
  ev.stdout_value = json.GetString("stdout");
  ev.file_path = json.GetString("file");
  ev.size_bytes = json.GetInt("size_bytes");
  ev.transfer_seconds = json.GetNumber("transfer_seconds");
  ev.source_run_id = json.GetString("source_run");
  return ev;
}

std::string SerializeTrace(const std::vector<ProvenanceEvent>& events) {
  std::string out;
  for (const ProvenanceEvent& ev : events) {
    out += ev.ToJson().Dump();
    out += '\n';
  }
  return out;
}

Result<std::vector<ProvenanceEvent>> ParseTrace(std::string_view text) {
  std::vector<ProvenanceEvent> out;
  size_t line_no = 0;
  for (const std::string& line : StrSplit(text, '\n')) {
    ++line_no;
    std::string_view trimmed = StrTrim(line);
    if (trimmed.empty()) continue;
    auto json = Json::Parse(trimmed);
    if (!json.ok()) {
      return json.status().WithContext(
          StrFormat("trace line %zu", line_no));
    }
    auto ev = ProvenanceEvent::FromJson(*json);
    if (!ev.ok()) {
      return ev.status().WithContext(StrFormat("trace line %zu", line_no));
    }
    out.push_back(std::move(ev).value());
  }
  return out;
}

// --------------------------------------------------------- ProvenanceShard --

ProvenanceShard::ProvenanceShard(std::string run_id,
                                 std::string workflow_name, double started,
                                 std::unique_ptr<ProvenanceStore> store,
                                 std::atomic<int64_t>* global_seq)
    : run_id_(std::move(run_id)),
      workflow_name_(std::move(workflow_name)),
      started_(started),
      global_seq_(global_seq),
      store_(std::move(store)) {}

void ProvenanceShard::Append(ProvenanceEvent event) {
  if (event.run_id.empty()) event.run_id = run_id_;
  std::lock_guard<std::mutex> lock(mu_);
  if (sealed_) {
    ++dropped_after_seal_;
    return;
  }
  // Stamped under the shard lock so seq is ascending within the shard
  // (the merge relies on per-shard order); different shards only share
  // the lock-free atomic.
  if (global_seq_ != nullptr) {
    event.seq = global_seq_->fetch_add(1, std::memory_order_relaxed);
  }
  store_->Append(event);
}

void ProvenanceShard::RecordWorkflowStart(double now) {
  ProvenanceEvent ev;
  ev.type = ProvenanceEventType::kWorkflowStart;
  ev.timestamp = now;
  ev.workflow_name = workflow_name_;
  Append(std::move(ev));
}

void ProvenanceShard::RecordWorkflowEnd(double now, bool success) {
  ProvenanceEvent ev;
  ev.type = ProvenanceEventType::kWorkflowEnd;
  ev.timestamp = now;
  ev.workflow_name = workflow_name_;
  ev.total_runtime = now - started_;
  ev.success = success;
  Append(std::move(ev));
  Seal();
}

void ProvenanceShard::RecordTaskStart(const TaskSpec& task, int32_t node,
                                      const std::string& node_name,
                                      double now) {
  ProvenanceEvent ev;
  ev.type = ProvenanceEventType::kTaskStart;
  ev.timestamp = now;
  ev.task_id = task.id;
  ev.signature = task.signature;
  ev.command = task.command;
  ev.tool = task.ToolName();
  ev.node = node;
  ev.node_name = node_name;
  Append(std::move(ev));
}

void ProvenanceShard::RecordTaskEnd(const TaskResult& result,
                                    const std::string& node_name) {
  ProvenanceEvent ev;
  ev.type = ProvenanceEventType::kTaskEnd;
  ev.timestamp = result.finished_at;
  ev.task_id = result.id;
  ev.signature = result.signature;
  ev.node = result.node;
  ev.node_name = node_name;
  ev.duration = result.Makespan();
  ev.success = result.status.ok();
  ev.stdout_value = result.stdout_value;
  Append(std::move(ev));
}

void ProvenanceShard::RecordFileStageIn(TaskId task, const std::string& path,
                                        int64_t size_bytes,
                                        double transfer_seconds, double now) {
  ProvenanceEvent ev;
  ev.type = ProvenanceEventType::kFileStageIn;
  ev.timestamp = now;
  ev.task_id = task;
  ev.file_path = path;
  ev.size_bytes = size_bytes;
  ev.transfer_seconds = transfer_seconds;
  Append(std::move(ev));
}

void ProvenanceShard::RecordFileStageOut(TaskId task, const std::string& path,
                                         int64_t size_bytes,
                                         double transfer_seconds, double now) {
  ProvenanceEvent ev;
  ev.type = ProvenanceEventType::kFileStageOut;
  ev.timestamp = now;
  ev.task_id = task;
  ev.file_path = path;
  ev.size_bytes = size_bytes;
  ev.transfer_seconds = transfer_seconds;
  Append(std::move(ev));
}

void ProvenanceShard::RecordTaskCacheHit(TaskId task,
                                         const std::string& signature,
                                         const std::string& source_run_id,
                                         double saved_seconds, double now) {
  ProvenanceEvent ev;
  ev.type = ProvenanceEventType::kTaskCacheHit;
  ev.timestamp = now;
  ev.task_id = task;
  ev.signature = signature;
  ev.source_run_id = source_run_id;
  ev.duration = saved_seconds;
  Append(std::move(ev));
}

void ProvenanceShard::Seal() {
  std::lock_guard<std::mutex> lock(mu_);
  sealed_ = true;
}

bool ProvenanceShard::sealed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_;
}

int64_t ProvenanceShard::dropped_after_seal() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_after_seal_;
}

std::vector<ProvenanceEvent> ProvenanceShard::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->Events();
}

size_t ProvenanceShard::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->size();
}

// ---------------------------------------------------------- ProvenanceView --

void ProvenanceView::AddShard(const ProvenanceShard* shard) {
  if (shard != nullptr) shards_.push_back(shard);
}

std::vector<ProvenanceEvent> ProvenanceView::Events() const {
  // Snapshot each shard (its lock is taken one at a time, briefly).
  std::vector<std::vector<ProvenanceEvent>> snapshots;
  snapshots.reserve(shards_.size());
  size_t total = 0;
  bool all_stamped = true;
  for (const ProvenanceShard* shard : shards_) {
    snapshots.push_back(shard->Events());
    total += snapshots.back().size();
    for (const ProvenanceEvent& ev : snapshots.back()) {
      if (ev.seq < 0) all_stamped = false;
    }
  }

  std::vector<ProvenanceEvent> merged;
  merged.reserve(total);
  if (all_stamped) {
    // K-way merge by seq: every shard snapshot is already ascending in
    // seq, so this reproduces the exact global append order a single
    // shared store would hold.
    std::vector<size_t> next(snapshots.size(), 0);
    while (merged.size() < total) {
      int best = -1;
      int64_t best_seq = 0;
      for (size_t i = 0; i < snapshots.size(); ++i) {
        if (next[i] >= snapshots[i].size()) continue;
        int64_t s = snapshots[i][next[i]].seq;
        if (best < 0 || s < best_seq) {
          best = static_cast<int>(i);
          best_seq = s;
        }
      }
      if (best < 0) break;  // defensive: all cursors exhausted early
      merged.push_back(
          std::move(snapshots[static_cast<size_t>(best)]
                             [next[static_cast<size_t>(best)]++]));
    }
    return merged;
  }
  // Foreign (unstamped) events present: fall back to timestamp order,
  // stable across the shard concatenation so the result is deterministic.
  for (std::vector<ProvenanceEvent>& snapshot : snapshots) {
    for (ProvenanceEvent& ev : snapshot) merged.push_back(std::move(ev));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const ProvenanceEvent& a, const ProvenanceEvent& b) {
                     return a.timestamp < b.timestamp;
                   });
  return merged;
}

size_t ProvenanceView::size() const {
  size_t total = 0;
  for (const ProvenanceShard* shard : shards_) total += shard->size();
  return total;
}

Result<double> ProvenanceView::LatestRuntime(const std::string& signature,
                                             int32_t node) const {
  // The paper's strategy is "always use the latest observed runtime" to
  // adapt quickly to infrastructure changes: take the per-shard latest
  // match, then the globally newest among those (merged order).
  bool found = false;
  int64_t best_seq = -1;
  double best_ts = 0.0;
  double best = 0.0;
  for (const ProvenanceShard* shard : shards_) {
    std::vector<ProvenanceEvent> events = shard->Events();
    for (auto it = events.rbegin(); it != events.rend(); ++it) {
      if (it->type == ProvenanceEventType::kTaskEnd && it->success &&
          it->signature == signature && it->node == node) {
        bool newer = !found || (it->seq >= 0 && best_seq >= 0
                                    ? it->seq > best_seq
                                    : it->timestamp > best_ts);
        if (newer) {
          found = true;
          best_seq = it->seq;
          best_ts = it->timestamp;
          best = it->duration;
        }
        break;  // within a shard, the first hit from the back is latest
      }
    }
  }
  if (!found) {
    return Status::NotFound("no runtime observation for " + signature);
  }
  return best;
}

std::vector<std::pair<int32_t, double>> ProvenanceView::RuntimeObservations(
    const std::string& signature) const {
  std::vector<std::pair<int32_t, double>> out;
  for (const ProvenanceEvent& ev : Events()) {
    if (ev.type == ProvenanceEventType::kTaskEnd && ev.success &&
        ev.signature == signature) {
      out.emplace_back(ev.node, ev.duration);
    }
  }
  return out;
}

// ------------------------------------------------------- ProvenanceManager --

ProvenanceManager::ProvenanceManager()
    : factory_([](const std::string&)
                   -> Result<std::unique_ptr<ProvenanceStore>> {
        return std::unique_ptr<ProvenanceStore>(
            std::make_unique<InMemoryProvenanceStore>());
      }) {}

ProvenanceManager::ProvenanceManager(ShardStoreFactory factory)
    : factory_(std::move(factory)) {}

std::string ProvenanceManager::BeginWorkflow(const std::string& workflow_name,
                                             double now) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string run_id = StrFormat("%s-run-%lld", workflow_name.c_str(),
                                 static_cast<long long>(run_counter_++));
  auto store = factory_(run_id);
  std::unique_ptr<ProvenanceStore> backing;
  if (store.ok()) {
    backing = std::move(*store);
  } else {
    // Provenance must never take the workflow down: degrade to memory.
    HIWAY_LOG_ERROR << "provenance shard backend for " << run_id
                    << " failed (" << store.status()
                    << "); falling back to in-memory";
    backing = std::make_unique<InMemoryProvenanceStore>();
  }
  auto shard = std::make_unique<ProvenanceShard>(
      run_id, workflow_name, now, std::move(backing), &seq_);
  shard->RecordWorkflowStart(now);
  by_run_[run_id] = shard.get();
  shards_.push_back(std::move(shard));
  return run_id;
}

ProvenanceShard* ProvenanceManager::ShardLocked(
    const std::string& run_id) const {
  auto it = by_run_.find(run_id);
  return it == by_run_.end() ? nullptr : it->second;
}

ProvenanceShard* ProvenanceManager::shard(const std::string& run_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ShardLocked(run_id);
}

std::vector<std::string> ProvenanceManager::RunIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->run_id());
  return out;
}

ProvenanceView ProvenanceManager::View() const {
  std::lock_guard<std::mutex> lock(mu_);
  ProvenanceView view;
  for (const auto& shard : shards_) view.AddShard(shard.get());
  return view;
}

ProvenanceView ProvenanceManager::ViewOf(
    const std::vector<std::string>& run_ids) const {
  std::lock_guard<std::mutex> lock(mu_);
  ProvenanceView view;
  for (const std::string& run_id : run_ids) {
    view.AddShard(ShardLocked(run_id));
  }
  return view;
}

std::vector<ProvenanceEvent> ProvenanceManager::Events() const {
  return View().Events();
}

size_t ProvenanceManager::size() const { return View().size(); }

size_t ProvenanceManager::shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

Status ProvenanceManager::AdoptShard(const std::string& run_id,
                                     std::unique_ptr<ProvenanceStore> store) {
  if (store == nullptr) return Status::InvalidArgument("null shard store");
  std::lock_guard<std::mutex> lock(mu_);
  if (by_run_.count(run_id) > 0) {
    return Status::InvalidArgument("shard for run '" + run_id +
                                   "' already exists");
  }
  std::string workflow_name;
  double started = 0.0;
  for (const ProvenanceEvent& ev : store->Events()) {
    // Keep id issuance collision-free with the adopted history.
    if (ev.seq >= 0) {
      int64_t floor = ev.seq + 1;
      int64_t cur = seq_.load(std::memory_order_relaxed);
      while (cur < floor &&
             !seq_.compare_exchange_weak(cur, floor,
                                         std::memory_order_relaxed)) {
      }
    }
    if (ev.type == ProvenanceEventType::kWorkflowStart &&
        workflow_name.empty()) {
      workflow_name = ev.workflow_name;
      started = ev.timestamp;
    }
  }
  size_t pos = run_id.rfind("-run-");
  if (pos != std::string::npos) {
    auto n = ParseInt64(run_id.substr(pos + 5));
    if (n.ok() && *n >= run_counter_) run_counter_ = *n + 1;
  }
  auto shard = std::make_unique<ProvenanceShard>(
      run_id, workflow_name, started, std::move(store), &seq_);
  shard->Seal();
  by_run_[run_id] = shard.get();
  shards_.push_back(std::move(shard));
  return Status::OK();
}

void ProvenanceManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  by_run_.clear();
  shards_.clear();
}

}  // namespace hiway
