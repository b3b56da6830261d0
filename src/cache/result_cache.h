// Cluster-wide, content-addressed result cache: the generalisation of the
// AM's within-submission failover memoisation (src/core/hiway_am.cc,
// TryMemoise) to *repeat submissions* — the NGS re-run pattern the paper's
// evaluation workloads embody, where the same SNV/RNA-seq pipeline runs
// daily with one changed input. A hit completes its task exactly like a
// memoised one: HiWayAm::CompleteInstantly queues the recorded result and
// HiWayAm::DeliverCompletions hands it on with every other completion.
//
// Keying. An entry is addressed by a key derived from the task's tool
// signature, command, parameters, and the *content fingerprints* of its
// input files (Dfs::ContentId — the simulator's stand-in for a checksum of
// the bytes), plus the declared output bindings. Re-ingesting one input
// changes its fingerprint, so exactly the downstream cone of the change
// misses while untouched chains hit. See docs/data-cache.md.
//
// Tenancy. Entries record the run that produced them; a lookup names the
// requesting tenant and is answered only when (a) the producing run
// belongs to that tenant and (b) that run's provenance shard still
// vouches for the execution (a successful task end with the entry's
// signature and task id). This reuses the cross-tenant no-leak machinery of the
// sharded provenance layer: the cache can never serve one tenant's
// private outputs to another, and an entry whose provenance history is
// gone (wiped, or not adopted after a restart) is conservatively a miss.
//
// Durability ordering. Entries are sealed by Publish() only after the
// producing attempt's outputs are durably replicated in DFS (the AM calls
// it strictly after stage-out completes, and Publish re-verifies every
// output against the NameNode before sealing). An AM that crashes before
// its outputs replicate therefore never leaves a dangling entry. With a
// persistent index attached (ProvDb), sealed entries survive a service
// restart; lookups still re-verify outputs against the live DFS.
//
// Verification. With `verify` enabled (--cache-verify), a sampled subset
// of hits re-hashes the entry's outputs against DFS before serving; a
// mismatch fails loudly (IoError + entry evicted + error log). The
// re-hash consults the fault injector's hdfs-error hook, so transient
// read faults during verification downgrade the hit to a recompute.

#ifndef HIWAY_CACHE_RESULT_CACHE_H_
#define HIWAY_CACHE_RESULT_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/hdfs/dfs.h"
#include "src/lang/workflow.h"

namespace hiway {

class Json;
class ProvDb;
class ProvenanceManager;
class Tracer;

struct ResultCacheOptions {
  /// Maximum sealed entries (LRU beyond it); <= 0 = unbounded.
  int64_t max_entries = 0;
  /// Spot-check audit mode: re-hash a sampled fraction of hits.
  bool verify = false;
  /// Fraction of hits sampled for verification.
  double verify_rate = 0.25;
  /// Seed of the verification sampler (deterministic replay).
  uint64_t seed = 20170321;
};

struct ResultCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t seals = 0;
  /// Entries restored from the persistent index on open.
  int64_t restored = 0;
  /// Publishes refused because an output was not durably in DFS.
  int64_t rejected_publishes = 0;
  /// Entries dropped because DFS content drifted underneath them.
  int64_t stale_evictions = 0;
  /// Entries dropped by the max_entries LRU bound.
  int64_t capacity_evictions = 0;
  /// Entries dropped by EvictUnreadable because cluster churn left an
  /// output with zero live replicas.
  int64_t churn_evictions = 0;
  /// Lookups refused because the entry belongs to another tenant.
  int64_t tenant_denied = 0;
  /// Lookups refused because no provenance shard vouches for the entry
  /// (or it belongs to a run of another tenant).
  int64_t unresolved = 0;
  int64_t verify_checks = 0;
  /// Verification reads that hit a transient DFS fault (hit downgraded).
  int64_t verify_transients = 0;
  /// Verification mismatches (loud failures; entry evicted).
  int64_t verify_mismatches = 0;
  /// Sum of original attempt makespans served from cache ("saved" time).
  double saved_compute_s = 0.0;
};

/// One output binding served by a hit.
struct CachedOutput {
  std::string param;
  std::string path;
  int64_t size_bytes = 0;
  uint64_t content_id = 0;
  bool is_value = false;
};

/// A resolved cache hit: everything the AM needs to complete the task
/// without a container.
struct CacheHit {
  std::string key;
  std::string signature;
  /// Run that produced the entry.
  std::string run_id;
  /// Node the original attempt ran on (attribution only).
  int32_t node = -1;
  std::string node_name;
  /// Original attempt makespan — the time a hit saves.
  double duration = 0.0;
  std::string stdout_value;
  std::vector<CachedOutput> outputs;
};

class ResultCache {
 public:
  /// `dfs` and `provenance` must outlive the cache.
  ResultCache(Dfs* dfs, ProvenanceManager* provenance,
              ResultCacheOptions options = {});
  ~ResultCache();
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Optional: emits kCache "cache_seal"/"cache_evict" instants.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

  /// Attaches (creating if necessary) a persistent ProvDb index at
  /// `path` and restores every entry it holds. Restored entries still
  /// pass the full lookup gauntlet (tenancy, provenance resolution, DFS
  /// re-verification) before serving.
  Status OpenIndex(const std::string& path);

  /// Fault-injection hook consulted once per output during verification
  /// re-hashes (wired to FaultInjector::ShouldFailRead by the service's
  /// hdfs-error scenario). Returning true marks the re-read transient.
  void SetVerifyReadHook(
      std::function<bool(const std::string& path, NodeId node)> hook);

  /// Declares `run_id` as belonging to `tenant`. Entries published under
  /// the run inherit the tenant; lookups from other tenants never see
  /// them. Unbound runs publish under the "default" tenant.
  void BindRun(const std::string& run_id, const std::string& tenant);
  std::string TenantOf(const std::string& run_id) const;

  /// The content-addressed key of `spec` under current DFS contents;
  /// NotFound when an input file does not exist (key not derivable).
  Result<std::string> KeyFor(const TaskSpec& spec) const;

  /// Seals a cache entry for a completed attempt. Call only after the
  /// attempt's stage-out is durably complete; Publish independently
  /// re-verifies every file output against DFS and refuses to seal
  /// (FailedPrecondition) when any is missing — a crashed AM must never
  /// leave a dangling entry. `node_name` is the executing node, for
  /// attribution on later hits.
  Status Publish(const TaskSpec& spec, const TaskResult& result,
                 const std::string& run_id, const std::string& node_name = "");

  /// Tenant-scoped lookup. NotFound = miss (recompute); IoError = a
  /// verification sample caught a corrupt entry (loud failure; the entry
  /// is evicted and the caller should recompute *and* alarm).
  Result<CacheHit> Lookup(const TaskSpec& spec, const std::string& tenant);

  /// Integrity audit: number of *dangling* sealed entries — entries with
  /// a file output that is absent from DFS. Sealing guaranteed every
  /// output durable, so a dangling entry means a seal-before-durable bug
  /// (an AM crash window) or unrecovered data loss. Used by crash tests:
  /// after any sequence of AM crashes this must be zero. Entries whose
  /// outputs are present but *drifted* (superseded by a re-execution or
  /// rewrite) are not dangling — Lookup evicts those lazily as stale.
  int64_t AuditAgainstDfs() const;

  /// Churn sweep: evicts sealed entries referencing an output that no
  /// longer exists or has lost every replica (unwarned node deaths can
  /// destroy all copies of a block before re-replication runs). Called
  /// by the elastic layer after each membership change so no sealed
  /// entry ever references a vanished-only replica. Returns the number
  /// of entries evicted (counted as churn_evictions).
  int64_t EvictUnreadable();

  /// True when some sealed entry records `path` as a file output. The
  /// intermediate-data GC consults this before deleting a dead file: a
  /// pinned path must survive, or the entry's replay guarantee breaks
  /// (docs/storage-model.md, "GC × result-cache pinning").
  bool PinsPath(const std::string& path) const;

  size_t size() const;
  ResultCacheStats stats() const;
  const ResultCacheOptions& options() const { return options_; }

 private:
  friend class ProvenanceOracle;  // tests/oracles: scan-backed resolution

  struct Entry {
    std::string key;
    std::string signature;
    TaskId task_id = kInvalidTask;  // producing run's task id
    std::string run_id;
    std::string tenant;
    int32_t node = -1;
    std::string node_name;
    double duration = 0.0;
    std::string stdout_value;
    std::vector<CachedOutput> outputs;
    /// Digest over the outputs' (path, size, content) triples; what
    /// verification re-derives from live DFS.
    uint64_t outputs_digest = 0;
    uint64_t tick = 0;  // LRU recency stamp
  };

  static uint64_t DigestOutputs(const std::vector<CachedOutput>& outputs);
  /// True when every file output of `entry` is in DFS with the recorded
  /// size and content fingerprint.
  bool OutputsFresh(const Entry& entry) const;
  static Json EntryToJson(const Entry& entry);
  void PersistLocked(const Entry& entry);
  /// Erases the sealed (key, tenant) entry, which must exist: its index
  /// record and output pins go with it, an emptied key is dropped, and a
  /// kCache `instant` is emitted. Counters are the caller's.
  void EraseLocked(const std::string& key, const std::string& tenant,
                   const char* instant);
  size_t TotalEntriesLocked() const;
  std::string TenantOfLocked(const std::string& run_id) const;
  /// True when the producing run's provenance shard vouches for the
  /// entry (a successful task end with its signature and task id).
  bool ResolvedByProvenance(const Entry& entry) const;
  /// Adds (+1) or releases (-1) the pin index entries for `entry`'s file
  /// outputs. Every insert/erase of a sealed entry must go through this
  /// so PinsPath stays exact.
  void PinOutputsLocked(const Entry& entry, int sign);

  Dfs* dfs_;
  ProvenanceManager* provenance_;
  ResultCacheOptions options_;
  Tracer* tracer_ = nullptr;
  std::function<bool(const std::string&, NodeId)> verify_read_hook_;
  mutable std::mutex mu_;
  /// key -> tenant -> entry. Tenants get private namespaces under a
  /// shared content key: two tenants computing the same bytes hold
  /// independent entries, so neither can clobber (or observe) the other.
  std::map<std::string, std::map<std::string, Entry>> entries_;
  /// path -> number of sealed entries recording it as a file output (the
  /// GC pin index).
  std::map<std::string, int> pinned_paths_;
  std::map<std::string, std::string> tenant_of_run_;
  std::unique_ptr<ProvDb> index_;  // nullptr = in-memory only
  uint64_t tick_ = 0;
  Rng verify_rng_;
  ResultCacheStats stats_;
};

}  // namespace hiway

#endif  // HIWAY_CACHE_RESULT_CACHE_H_
