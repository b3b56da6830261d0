// Intermediate-data garbage collector: the port of Makeflow's
// reference-counting GC (makeflow_gc.c) onto the Hi-WAY DFS.
//
// Every workflow run opens a *scope*. Inside a scope the AM registers each
// task's input set before the task can complete (RegisterConsumer) and
// each produced file as stage-out finishes (RegisterProduced), naming
// files by their DFS FileId (Dfs::Intern). A produced file is *dead* —
// and deleted from the DFS — once every registered consumer has
// successfully completed, it is not a workflow target, no other live
// scope references the file, and no sealed result-cache entry
// pins it. Pins are released only by *successful* completion, so a
// preempted or drain-requeued task (which never reaches OnConsumerDone)
// keeps its inputs alive across the retry by construction.
//
// Failover. When an AM attempt crashes, the service marks its scope
// *dormant*: no further online collection, interests frozen. The
// replacement attempt opens a fresh scope and re-registers every interest
// during replay (consumer sets are re-derived from the task graph; the
// ProvenanceView-backed memoisation decides which producers re-execute).
// Only after the replacement is live does the service dissolve the
// dormant scope (EndScope), whose final pass collects exactly the files
// no surviving scope references. See docs/storage-model.md.
//
// Iterative (non-static) sources can discover new consumers of any path
// at any time, so their scopes never collect online — only the EndScope
// pass runs, when the consumer set is finally complete.

#ifndef HIWAY_GC_INTERMEDIATE_GC_H_
#define HIWAY_GC_INTERMEDIATE_GC_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/flat_hash.h"
#include "src/hdfs/dfs.h"
#include "src/lang/workflow.h"

namespace hiway {

class ResultCache;

/// Cumulative collector counters across all scopes.
struct GcStats {
  int64_t files_collected = 0;
  int64_t bytes_collected = 0;
  /// Dead files whose deletion a sealed result-cache entry's pin deferred
  /// (once per file and scope; retried only by EndScope).
  int64_t cache_deferrals = 0;
  int64_t sweeps = 0;
  int64_t scopes_opened = 0;
  int64_t scopes_ended = 0;
};

/// Per-scope summary returned by EndScope, surfaced through
/// WorkflowReport.
struct GcScopeReport {
  /// High-water mark of the scope's live logical bytes (staged inputs +
  /// uncollected produced files) — the traced actual the footprint
  /// estimator is benchmarked against.
  int64_t peak_live_bytes = 0;
  int64_t files_collected = 0;
  int64_t bytes_collected = 0;
};

class IntermediateGc {
 public:
  /// `dfs` must outlive the collector.
  explicit IntermediateGc(Dfs* dfs) : dfs_(dfs) {}
  IntermediateGc(const IntermediateGc&) = delete;
  IntermediateGc& operator=(const IntermediateGc&) = delete;

  /// Optional: sealed entries of `cache` pin their outputs against
  /// collection (the GC must never invalidate the result cache).
  void SetResultCache(const ResultCache* cache) { cache_ = cache; }

  /// Opens the scope of run `run_id`. `is_static` gates online collection
  /// (iterative sources collect only at EndScope).
  void BeginScope(const std::string& run_id, bool is_static);

  /// Declares the workflow's final products; targets are never collected.
  /// May be called again as iterative sources resolve their targets.
  void SetTargets(const std::string& run_id,
                  const std::vector<std::string>& targets);

  /// Registers `task` as a consumer of `inputs`. Must happen before the
  /// task can complete (the AM calls it at admission, before memoisation).
  void RegisterConsumer(const std::string& run_id, TaskId task,
                        const std::vector<FileId>& inputs);

  /// Registers a file the scope produced (stage-out durably complete).
  void RegisterProduced(const std::string& run_id, FileId file,
                        int64_t size_bytes);

  /// Releases `task`'s input pins. Call only on *successful* completion —
  /// preempted / drain-requeued attempts keep their pins.
  void OnConsumerDone(const std::string& run_id, TaskId task);

  /// Freezes the scope after an AM crash: interests are kept, online
  /// collection stops. Dissolve with EndScope once a replacement attempt
  /// has re-registered its interests.
  void MarkDormant(const std::string& run_id);

  /// Final collection pass (dead, unpinned, not referenced by any other
  /// scope), then releases every interest the scope held. Returns the
  /// scope's summary; a zero report for unknown run ids.
  GcScopeReport EndScope(const std::string& run_id);

  /// Retries the cache-deferred dead files of live scopes. Returns files
  /// collected. Nothing in the service calls it: a deferral is retried
  /// only by EndScope (docs/storage-model.md §3).
  int64_t Sweep();

  /// True while run `run_id`'s scope is open.
  bool HasScope(const std::string& run_id) const;

  const GcStats& stats() const { return stats_; }

 private:
  struct FileState {
    bool produced = false;       // written by this scope (collectible)
    bool collected = false;      // already deleted by this GC
    bool counted_live = false;   // size currently in live_bytes
    bool target = false;         // a workflow target (never collected)
    bool deferred = false;       // dead, but the result cache pins it
    int64_t size_bytes = 0;
    std::set<TaskId> waiting_consumers;
  };

  struct Scope {
    bool is_static = false;
    bool dormant = false;
    FlatHashMap<FileId, FileState> files;
    FlatHashMap<TaskId, std::vector<FileId>> task_inputs;
    int64_t live_bytes = 0;
    int64_t peak_live_bytes = 0;
    int64_t files_collected = 0;
    int64_t bytes_collected = 0;
  };

  /// Returns the scope's entry for `file`, creating it (and taking the
  /// scope's global interest in the file) on first reference.
  FileState& Touch(Scope& scope, FileId file);
  void AddLive(Scope& scope, FileState& file);
  /// Deletes `id` if dead and unpinned; defers on a cache pin.
  /// `final_pass` also collects in dormant / iterative scopes (EndScope
  /// semantics).
  void MaybeCollect(Scope& scope, FileId id, bool final_pass);

  Dfs* dfs_;
  const ResultCache* cache_ = nullptr;
  std::map<std::string, Scope> scopes_;
  /// FileId -> number of scopes referencing the file (dense, grown on
  /// demand). A file is only collectible for a scope when its count is 1
  /// (that scope alone).
  std::vector<int> interest_;
  GcStats stats_;
};

}  // namespace hiway

#endif  // HIWAY_GC_INTERMEDIATE_GC_H_
