// Provenance Manager (Sec. 3.5 of the paper), sharded per submission.
//
// Records events at three granularities — workflow, task, and file — each
// timestamped and serialisable as JSON, so a trace is both a queryable
// statistics source (feeding the adaptive schedulers) and a re-executable
// workflow (the trace front-end in src/lang/trace_source.h).
//
// Storage mirrors the paper's one-AM-per-workflow argument: every AM
// attempt appends to its own ProvenanceShard (its own store, its own
// lock), so concurrent workflows never contend on a central write path.
// Cross-run reads — trace export, failover replay — go through a
// ProvenanceView, which merges the shards on read. A global atomic
// sequence number stamped at append time makes the merged order
// identical to what a single shared store would have recorded for the
// same schedule.
//
// The one question the running system asks of another run's history —
// "did run R end (signature, task) successfully?", which vouches for a
// result-cache entry — never reads the event log: each shard keeps a
// small index of its successful task ends, maintained on append
// (docs/provenance.md).

#ifndef HIWAY_CORE_PROVENANCE_H_
#define HIWAY_CORE_PROVENANCE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/result.h"
#include "src/lang/workflow.h"

namespace hiway {

enum class ProvenanceEventType {
  kWorkflowStart,
  kWorkflowEnd,
  kTaskStart,
  kTaskEnd,
  kFileStageIn,
  kFileStageOut,
  /// A task satisfied from the cluster-wide result cache: no container
  /// ran. `signature`/`task_id` name the satisfied task, `source_run_id`
  /// the run that produced the reused entry, and `duration` the original
  /// attempt's makespan (the time the hit saved). Replay and the runtime
  /// estimator ignore these — a hit is not a runtime observation.
  kTaskCacheHit,
};

std::string_view ProvenanceEventTypeToString(ProvenanceEventType type);
Result<ProvenanceEventType> ProvenanceEventTypeFromString(std::string_view s);

/// One provenance record. Unused fields stay at their defaults and are
/// omitted from the JSON encoding.
struct ProvenanceEvent {
  ProvenanceEventType type = ProvenanceEventType::kWorkflowStart;
  /// Unique id of the workflow run this event belongs to.
  std::string run_id;
  /// Global append sequence number, stamped by the shard at append time;
  /// -1 for events that never passed through a shard (e.g. a trace file
  /// produced by another installation). The merge-on-read view orders
  /// shards by this.
  int64_t seq = -1;
  /// Virtual timestamp (seconds).
  double timestamp = 0.0;

  // Workflow-level fields.
  std::string workflow_name;
  double total_runtime = 0.0;
  bool success = true;

  // Task-level fields.
  TaskId task_id = kInvalidTask;
  std::string signature;
  std::string command;
  std::string tool;
  int32_t node = -1;
  std::string node_name;
  double duration = 0.0;
  std::string stdout_value;

  // File-level fields.
  std::string file_path;
  int64_t size_bytes = 0;
  double transfer_seconds = 0.0;

  // Cache-hit fields (kTaskCacheHit): the run whose execution the cache
  // served this task from.
  std::string source_run_id;

  Json ToJson() const;
  static Result<ProvenanceEvent> FromJson(const Json& json);
};

/// Long-term storage for provenance events. Implementations: in-memory
/// (default), and the embedded key-value database in src/provdb/ standing
/// in for the paper's MySQL/Couchbase backends. A store holds the events
/// of ONE shard; it needs no internal locking (the owning shard
/// serialises access).
class ProvenanceStore {
 public:
  virtual ~ProvenanceStore() = default;
  virtual void Append(const ProvenanceEvent& event) = 0;
  /// All stored events in append order.
  virtual std::vector<ProvenanceEvent> Events() const = 0;
  virtual size_t size() const = 0;
  virtual void Clear() = 0;
};

class InMemoryProvenanceStore : public ProvenanceStore {
 public:
  void Append(const ProvenanceEvent& event) override {
    events_.push_back(event);
  }
  std::vector<ProvenanceEvent> Events() const override { return events_; }
  size_t size() const override { return events_.size(); }
  void Clear() override { events_.clear(); }

 private:
  std::vector<ProvenanceEvent> events_;
};

/// Serialises events as JSON lines (one compact object per line) — the
/// paper's HDFS trace-file format.
std::string SerializeTrace(const std::vector<ProvenanceEvent>& events);

/// Parses a JSON-lines trace back into events.
Result<std::vector<ProvenanceEvent>> ParseTrace(std::string_view text);

/// The append target of ONE workflow run (one AM attempt): owns its store
/// and its lock, so concurrent shards never contend with each other —
/// only the global sequence counter is shared, and that is a lock-free
/// atomic. Created by ProvenanceManager::BeginWorkflow, sealed when the
/// run ends (or its AM is declared dead), and retained afterwards so
/// failover replay and cross-run statistics keep the history.
class ProvenanceShard {
 public:
  /// `global_seq` is the manager-wide append counter (not owned, must
  /// outlive the shard); pass nullptr to leave events unstamped.
  ProvenanceShard(std::string run_id, std::string workflow_name,
                  double started, std::unique_ptr<ProvenanceStore> store,
                  std::atomic<int64_t>* global_seq);

  const std::string& run_id() const { return run_id_; }
  const std::string& workflow_name() const { return workflow_name_; }
  double started() const { return started_; }

  /// Appends one event: stamps the global sequence number and — when the
  /// event names no run — this shard's run id. Thread-safe; appends to a
  /// sealed shard are dropped (and counted).
  void Append(ProvenanceEvent event);

  // Event-building front doors used by the AM (Sec. 3.5 record points).
  void RecordWorkflowStart(double now);
  /// Appends the workflow-end event (total_runtime measured from the
  /// shard's start) and seals the shard.
  void RecordWorkflowEnd(double now, bool success);
  void RecordTaskStart(const TaskSpec& task, int32_t node,
                       const std::string& node_name, double now);
  void RecordTaskEnd(const TaskResult& result, const std::string& node_name);
  void RecordFileStageIn(TaskId task, const std::string& path,
                         int64_t size_bytes, double transfer_seconds,
                         double now);
  void RecordFileStageOut(TaskId task, const std::string& path,
                          int64_t size_bytes, double transfer_seconds,
                          double now);
  /// Records a result-cache hit: `task` (with `signature`) was satisfied
  /// from the entry `source_run_id` produced, saving `saved_seconds` of
  /// the original attempt's makespan.
  void RecordTaskCacheHit(TaskId task, const std::string& signature,
                          const std::string& source_run_id,
                          double saved_seconds, double now);

  /// No further appends (terminal run, or its AM was declared dead).
  /// Idempotent. Sealed shards stay readable forever.
  void Seal();
  bool sealed() const;
  /// Appends dropped because the shard was already sealed (late events
  /// from a crashed AM's in-flight callbacks).
  int64_t dropped_after_seal() const;

  /// True when this shard holds a successful task-end event for
  /// `signature` and `task`; `task == kInvalidTask` matches any task with
  /// that signature. Answered from the shard's index, without copying
  /// the event log.
  bool HasSuccessfulTaskEnd(const std::string& signature, TaskId task) const;

  /// Snapshot of this shard's events, append order (ascending seq).
  std::vector<ProvenanceEvent> Events() const;
  size_t size() const;

 private:
  /// Adds a stored event to the success index (no-op for anything but a
  /// successful task end).
  void IndexLocked(const ProvenanceEvent& event);

  const std::string run_id_;
  const std::string workflow_name_;
  const double started_;
  std::atomic<int64_t>* global_seq_;
  mutable std::mutex mu_;
  std::unique_ptr<ProvenanceStore> store_;
  bool sealed_ = false;
  int64_t dropped_after_seal_ = 0;
  /// signature -> ids of the tasks that ended successfully with it,
  /// ascending and unique. Each signature string is stored once per
  /// shard; a workflow's tasks share a handful of signatures.
  std::map<std::string, std::vector<TaskId>> succeeded_;
};

/// Merge-on-read over a set of shards: iteration in global append order
/// across any subset of a service's runs (one submission's attempts, a
/// queue, or everything).
/// A view is a cheap value object holding non-owning shard pointers; the
/// shards (retained by their manager) must outlive it. Reads take each
/// shard's lock one at a time — never two at once — so appenders only
/// ever contend with a reader on their own shard.
class ProvenanceView {
 public:
  ProvenanceView() = default;

  void AddShard(const ProvenanceShard* shard);
  size_t shard_count() const { return shards_.size(); }

  /// All events of all shards merged into global append order: ascending
  /// seq when every event was shard-stamped (the normal case, exactly
  /// the sequence a single shared store would hold), otherwise by
  /// timestamp with shard order breaking ties.
  std::vector<ProvenanceEvent> Events() const;

  /// Total events across the shards.
  size_t size() const;

  /// JSON-lines trace of the merged events (HDFS trace-file export).
  std::string ExportTrace() const { return SerializeTrace(Events()); }

 private:
  friend class ProvenanceOracle;  // tests/oracles: per-shard scans

  std::vector<const ProvenanceShard*> shards_;
};

/// Builds the store behind a new shard. The default factory produces
/// in-memory stores; src/provdb/ provides one that gives every shard its
/// own log segment under a common directory.
using ShardStoreFactory =
    std::function<Result<std::unique_ptr<ProvenanceStore>>(
        const std::string& run_id)>;

/// Front door used by the AMs: issues run ids, creates one shard per run
/// (BeginWorkflow), and answers cross-run queries through merged views.
/// Appends never pass through the manager — an AM holds its own shard —
/// so the manager's lock guards only shard creation and lookup.
class ProvenanceManager {
 public:
  /// In-memory shards.
  ProvenanceManager();
  /// Custom shard backends (e.g. per-shard ProvDb log segments). A
  /// factory failure falls back to an in-memory shard with an error log
  /// (provenance must never take the workflow down).
  explicit ProvenanceManager(ShardStoreFactory factory);

  /// Starts a new run: creates its shard, records the workflow-start
  /// event, and returns the run id. Run ids are unique per manager for
  /// the manager's lifetime (a counter, never reused), so several
  /// concurrent AMs — and successive failover attempts of one workflow —
  /// record interleaved without clobbering each other.
  std::string BeginWorkflow(const std::string& workflow_name, double now);

  /// The shard of a run, for direct appends (the AM holds this for its
  /// lifetime; shards are never destroyed before the manager).
  ProvenanceShard* shard(const std::string& run_id) const;

  /// Run ids of every shard, creation order.
  std::vector<std::string> RunIds() const;

  /// View over every shard of this manager.
  ProvenanceView View() const;
  /// View over the shards of the named runs only (e.g. the prior
  /// attempts of one submission, for failover replay). Unknown run ids
  /// are skipped.
  ProvenanceView ViewOf(const std::vector<std::string>& run_ids) const;

  /// Merged events of all shards (View().Events()).
  std::vector<ProvenanceEvent> Events() const;
  /// Total events across all shards.
  size_t size() const;
  size_t shard_count() const;

  /// Adopts pre-existing history (a shard's store reopened from disk) as
  /// a sealed shard. The run counter and sequence counter advance past
  /// anything the store contains, so new runs never collide with it.
  Status AdoptShard(const std::string& run_id,
                    std::unique_ptr<ProvenanceStore> store);

  /// Drops every shard (the ablation harnesses wipe provenance between
  /// experiment phases). Outstanding shard pointers become dangling;
  /// only call between runs.
  void Clear();

 private:
  ProvenanceShard* ShardLocked(const std::string& run_id) const;

  mutable std::mutex mu_;  // guards the shard registry, never appends
  ShardStoreFactory factory_;
  std::vector<std::unique_ptr<ProvenanceShard>> shards_;  // creation order
  std::map<std::string, ProvenanceShard*, std::less<>> by_run_;
  std::atomic<int64_t> seq_{0};
  int64_t run_counter_ = 0;
};

}  // namespace hiway

#endif  // HIWAY_CORE_PROVENANCE_H_
