#include "src/cache/result_cache.h"

#include <cstdlib>
#include <utility>

#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/core/provenance.h"
#include "src/obs/tracer.h"
#include "src/provdb/provdb.h"

namespace hiway {

namespace {

constexpr char kDefaultTenant[] = "default";
constexpr char kIndexPrefix[] = "entry/";

std::string HexU64(uint64_t v) {
  return StrFormat("%016llx", static_cast<unsigned long long>(v));
}

uint64_t ParseHexU64(const std::string& s) {
  return static_cast<uint64_t>(std::strtoull(s.c_str(), nullptr, 16));
}

/// The persistent index's key of the (key, tenant) entry.
std::string IndexKey(const std::string& key, const std::string& tenant) {
  return StrFormat("%s%s/%s", kIndexPrefix, key.c_str(),
                   HexU64(Fnv1a64(tenant)).c_str());
}

}  // namespace

ResultCache::ResultCache(Dfs* dfs, ProvenanceManager* provenance,
                         ResultCacheOptions options)
    : dfs_(dfs),
      provenance_(provenance),
      options_(options),
      verify_rng_(options.seed) {}

ResultCache::~ResultCache() = default;

void ResultCache::SetVerifyReadHook(
    std::function<bool(const std::string& path, NodeId node)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  verify_read_hook_ = std::move(hook);
}

void ResultCache::BindRun(const std::string& run_id,
                          const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  tenant_of_run_[run_id] = tenant.empty() ? kDefaultTenant : tenant;
}

std::string ResultCache::TenantOfLocked(const std::string& run_id) const {
  auto it = tenant_of_run_.find(run_id);
  return it == tenant_of_run_.end() ? kDefaultTenant : it->second;
}

std::string ResultCache::TenantOf(const std::string& run_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return TenantOfLocked(run_id);
}

Result<std::string> ResultCache::KeyFor(const TaskSpec& spec) const {
  // The key covers everything that determines the bytes a task produces:
  // what runs (signature/tool/command/params), what it reads (input
  // content fingerprints), and where the results land (output bindings).
  uint64_t h = Fnv1a64(spec.signature);
  h = Fnv1a64("|tool|", h);
  h = Fnv1a64(spec.ToolName(), h);
  h = Fnv1a64("|cmd|", h);
  h = Fnv1a64(spec.command, h);
  for (const auto& [k, v] : spec.params) {
    h = Fnv1a64("|param|", h);
    h = Fnv1a64(k, h);
    h = Fnv1a64("=", h);
    h = Fnv1a64(v, h);
  }
  for (const std::string& path : spec.input_files) {
    auto stat = dfs_->Stat(path);
    if (!stat.ok()) {
      return Status::NotFound("cache key underivable, input missing: " +
                              path);
    }
    h = Fnv1a64("|in|", h);
    h = Fnv1a64(path, h);
    h = Fnv1a64(HexU64(stat->content_id), h);
  }
  for (const OutputSpec& out : spec.outputs) {
    h = Fnv1a64(out.is_value ? "|val|" : "|out|", h);
    h = Fnv1a64(out.param, h);
    h = Fnv1a64(":", h);
    h = Fnv1a64(out.path, h);
  }
  return HexU64(h);
}

uint64_t ResultCache::DigestOutputs(const std::vector<CachedOutput>& outputs) {
  uint64_t h = Fnv1a64("outputs");
  for (const CachedOutput& out : outputs) {
    h = Fnv1a64(out.path, h);
    h = Fnv1a64(StrFormat("|%lld|", static_cast<long long>(out.size_bytes)),
                h);
    h = Fnv1a64(HexU64(out.content_id), h);
    h = Fnv1a64(out.is_value ? "v" : "f", h);
  }
  return h;
}

bool ResultCache::OutputsFresh(const Entry& entry) const {
  for (const CachedOutput& out : entry.outputs) {
    if (out.is_value) continue;
    auto stat = dfs_->Stat(out.path);
    if (!stat.ok()) return false;
    if (stat->size_bytes != out.size_bytes) return false;
    if (stat->content_id != out.content_id) return false;
    // Metadata may survive a node loss that took every replica of some
    // block with it: an unreadable output must never be served.
    if (!dfs_->FileReadable(out.path)) return false;
  }
  return true;
}

bool ResultCache::ResolvedByProvenance(const Entry& entry) const {
  const ProvenanceShard* shard = provenance_->shard(entry.run_id);
  return shard != nullptr &&
         shard->HasSuccessfulTaskEnd(entry.signature, entry.task_id);
}

Json ResultCache::EntryToJson(const Entry& entry) {
  Json obj = Json::MakeObject();
  obj.Set("key", entry.key);
  obj.Set("signature", entry.signature);
  obj.Set("task", static_cast<int64_t>(entry.task_id));
  obj.Set("run", entry.run_id);
  obj.Set("tenant", entry.tenant);
  obj.Set("node", static_cast<int64_t>(entry.node));
  obj.Set("node_name", entry.node_name);
  obj.Set("duration", entry.duration);
  if (!entry.stdout_value.empty()) obj.Set("stdout", entry.stdout_value);
  Json outs = Json::MakeArray();
  for (const CachedOutput& out : entry.outputs) {
    Json o = Json::MakeObject();
    o.Set("param", out.param);
    o.Set("path", out.path);
    o.Set("size", out.size_bytes);
    // Fingerprints are 64-bit; JSON numbers are doubles, so hex strings.
    o.Set("content", HexU64(out.content_id));
    if (out.is_value) o.Set("value", true);
    outs.Append(std::move(o));
  }
  obj.Set("outputs", std::move(outs));
  obj.Set("digest", HexU64(entry.outputs_digest));
  return obj;
}

void ResultCache::PersistLocked(const Entry& entry) {
  if (!index_) return;
  Status st =
      index_->Put(IndexKey(entry.key, entry.tenant), EntryToJson(entry).Dump());
  if (!st.ok()) {
    HIWAY_LOG_WARN << "result cache: index write failed: " << st.message();
  }
}

void ResultCache::EraseLocked(const std::string& key,
                              const std::string& tenant,
                              const char* instant) {
  auto it = entries_.find(key);
  auto tit = it->second.find(tenant);
  if (index_) index_->Delete(IndexKey(key, tenant)).ok();
  PinOutputsLocked(tit->second, -1);
  if (tracer_) tracer_->Instant(SpanCategory::kCache, instant);
  // `key` and `tenant` may refer into the entry: not used past here.
  it->second.erase(tit);
  if (it->second.empty()) entries_.erase(it);
}

Status ResultCache::OpenIndex(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  HIWAY_ASSIGN_OR_RETURN(index_, ProvDb::Open(path));
  for (const auto& [ikey, value] : index_->Scan(kIndexPrefix)) {
    auto parsed = Json::Parse(value);
    if (!parsed.ok()) {
      HIWAY_LOG_WARN << "result cache: dropping unparsable index entry "
                     << ikey;
      continue;
    }
    const Json& obj = *parsed;
    Entry entry;
    entry.key = obj.GetString("key");
    entry.signature = obj.GetString("signature");
    entry.task_id = obj.GetInt("task", kInvalidTask);
    entry.run_id = obj.GetString("run");
    entry.tenant = obj.GetString("tenant", kDefaultTenant);
    entry.node = static_cast<int32_t>(obj.GetInt("node", -1));
    entry.node_name = obj.GetString("node_name");
    entry.duration = obj.GetNumber("duration");
    entry.stdout_value = obj.GetString("stdout");
    if (const Json* outs = obj.Find("outputs"); outs && outs->is_array()) {
      for (const Json& o : outs->as_array()) {
        CachedOutput out;
        out.param = o.GetString("param");
        out.path = o.GetString("path");
        out.size_bytes = o.GetInt("size");
        out.content_id = ParseHexU64(o.GetString("content"));
        out.is_value = o.GetBool("value");
        entry.outputs.push_back(std::move(out));
      }
    }
    entry.outputs_digest = ParseHexU64(obj.GetString("digest"));
    if (entry.key.empty()) continue;
    entry.tick = ++tick_;
    // Restore the producing run's tenant binding so TenantOf() answers
    // consistently after a restart.
    if (!entry.run_id.empty()) {
      tenant_of_run_.emplace(entry.run_id, entry.tenant);
    }
    PinOutputsLocked(entry, +1);
    entries_[entry.key][entry.tenant] = std::move(entry);
    ++stats_.restored;
  }
  return Status::OK();
}

Status ResultCache::Publish(const TaskSpec& spec, const TaskResult& result,
                            const std::string& run_id,
                            const std::string& node_name) {
  auto key = KeyFor(spec);
  if (!key.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected_publishes;
    return key.status();
  }
  // Re-verify durability against the NameNode before sealing: every file
  // output must be present. The AM only calls Publish after stage-out
  // completed, but the seal-after-durable invariant is enforced *here* so
  // no caller ordering bug can leave a dangling entry.
  std::vector<CachedOutput> outputs;
  outputs.reserve(spec.outputs.size());
  for (const OutputSpec& out : spec.outputs) {
    CachedOutput cached;
    cached.param = out.param;
    cached.path = out.path;
    cached.is_value = out.is_value;
    if (!out.is_value) {
      auto stat = dfs_->Stat(out.path);
      if (!stat.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.rejected_publishes;
        return Status::FailedPrecondition(
            "refusing to seal cache entry: output not durable in DFS: " +
            out.path);
      }
      cached.size_bytes = stat->size_bytes;
      cached.content_id = stat->content_id;
    }
    outputs.push_back(std::move(cached));
  }

  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.key = *key;
  entry.signature = spec.signature;
  entry.task_id = spec.id;
  entry.run_id = run_id;
  entry.tenant = TenantOfLocked(run_id);
  entry.node = result.node;
  entry.node_name = node_name;
  entry.duration = result.Makespan();
  entry.stdout_value = result.stdout_value;
  entry.outputs = std::move(outputs);
  entry.outputs_digest = DigestOutputs(entry.outputs);
  entry.tick = ++tick_;

  // LRU bound: make room before inserting (never evict the key we are
  // about to write). Replacing an existing (key, tenant) entry does not
  // grow the cache, so it needs no room.
  auto existing = entries_.find(entry.key);
  const bool replacing = existing != entries_.end() &&
                         existing->second.count(entry.tenant) > 0;
  if (!replacing && options_.max_entries > 0) {
    while (static_cast<int64_t>(TotalEntriesLocked()) >=
           options_.max_entries) {
      std::string victim_key;
      std::string victim_tenant;
      uint64_t oldest = ~uint64_t{0};
      for (const auto& [k, by_tenant] : entries_) {
        for (const auto& [tenant, e] : by_tenant) {
          if (e.tick < oldest) {
            oldest = e.tick;
            victim_key = k;
            victim_tenant = tenant;
          }
        }
      }
      if (victim_key.empty()) break;
      EraseLocked(victim_key, victim_tenant, "cache_evict");
      ++stats_.capacity_evictions;
    }
  }

  if (replacing) {
    PinOutputsLocked(existing->second.at(entry.tenant), -1);
  }
  PersistLocked(entry);
  PinOutputsLocked(entry, +1);
  entries_[entry.key][entry.tenant] = std::move(entry);
  ++stats_.seals;
  if (tracer_) {
    tracer_->Instant(SpanCategory::kCache, "cache_seal", -1, -1, spec.id,
                     result.node);
  }
  return Status::OK();
}

Result<CacheHit> ResultCache::Lookup(const TaskSpec& spec,
                                     const std::string& tenant) {
  const std::string want =
      tenant.empty() ? std::string(kDefaultTenant) : tenant;
  auto key = KeyFor(spec);
  std::lock_guard<std::mutex> lock(mu_);
  if (!key.ok()) {
    ++stats_.misses;
    return key.status();
  }
  auto it = entries_.find(*key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return Status::NotFound("cache miss: " + *key);
  }
  auto tit = it->second.find(want);
  if (tit == it->second.end()) {
    // The computation exists in the cache, but only under other tenants'
    // namespaces: a cross-tenant lookup we refuse.
    ++stats_.tenant_denied;
    ++stats_.misses;
    return Status::NotFound("cache entry belongs to another tenant");
  }
  Entry& entry = tit->second;

  // Resolve through the producing run's provenance shard: its index of
  // successful task ends must still vouch for the execution. Entries
  // whose history is gone are conservative misses.
  if (TenantOfLocked(entry.run_id) != want ||
      !ResolvedByProvenance(entry)) {
    ++stats_.unresolved;
    ++stats_.misses;
    return Status::NotFound("cache entry not resolvable via provenance: " +
                            *key);
  }

  if (!OutputsFresh(entry)) {
    ++stats_.stale_evictions;
    ++stats_.misses;
    EraseLocked(*key, want, "cache_evict");
    return Status::NotFound("cache entry stale (DFS content drifted): " +
                            *key);
  }

  // Spot-check audit (--cache-verify): re-hash a sampled hit's outputs
  // against DFS before serving it.
  if (options_.verify && verify_rng_.NextDouble() < options_.verify_rate) {
    ++stats_.verify_checks;
    for (const CachedOutput& out : entry.outputs) {
      if (out.is_value) continue;
      if (verify_read_hook_ && verify_read_hook_(out.path, entry.node)) {
        // Transient DFS fault mid-verification: we cannot vouch for the
        // bytes right now, so downgrade the hit to a recompute (the
        // entry itself is not suspect).
        ++stats_.verify_transients;
        ++stats_.misses;
        return Status::NotFound(
            "cache verification hit a transient DFS fault: " + out.path);
      }
    }
    std::vector<CachedOutput> live;
    live.reserve(entry.outputs.size());
    for (const CachedOutput& out : entry.outputs) {
      CachedOutput l = out;
      if (!out.is_value) {
        auto stat = dfs_->Stat(out.path);
        // OutputsFresh above guarantees existence; re-stat for the hash.
        if (stat.ok()) {
          l.size_bytes = stat->size_bytes;
          l.content_id = stat->content_id;
        }
      }
      live.push_back(std::move(l));
    }
    if (DigestOutputs(live) != entry.outputs_digest) {
      ++stats_.verify_mismatches;
      ++stats_.misses;
      HIWAY_LOG_ERROR << "result cache: VERIFY MISMATCH for key " << *key
                      << " (signature " << entry.signature
                      << "): evicting corrupt entry";
      EraseLocked(*key, want, "cache_verify_mismatch");
      return Status::IoError(
          "cache verification mismatch (corrupt entry evicted): " + *key);
    }
  }

  entry.tick = ++tick_;
  ++stats_.hits;
  stats_.saved_compute_s += entry.duration;

  CacheHit hit;
  hit.key = entry.key;
  hit.signature = entry.signature;
  hit.run_id = entry.run_id;
  hit.node = entry.node;
  hit.node_name = entry.node_name;
  hit.duration = entry.duration;
  hit.stdout_value = entry.stdout_value;
  hit.outputs = entry.outputs;
  return hit;
}

int64_t ResultCache::AuditAgainstDfs() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dangling = 0;
  for (const auto& [key, by_tenant] : entries_) {
    for (const auto& [tenant, entry] : by_tenant) {
      for (const CachedOutput& out : entry.outputs) {
        if (out.is_value) continue;
        // An output whose metadata vanished — or whose only replicas
        // vanished with their nodes (churn) — is equally dangling: the
        // sealed bytes cannot be produced any more.
        if (!dfs_->Exists(out.path) || !dfs_->FileReadable(out.path)) {
          ++dangling;
          break;
        }
      }
    }
  }
  return dangling;
}

int64_t ResultCache::EvictUnreadable() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::string>> unreadable;
  for (const auto& [key, by_tenant] : entries_) {
    for (const auto& [tenant, entry] : by_tenant) {
      for (const CachedOutput& out : entry.outputs) {
        if (out.is_value) continue;
        if (!dfs_->Exists(out.path) || !dfs_->FileReadable(out.path)) {
          unreadable.emplace_back(key, tenant);
          break;
        }
      }
    }
  }
  for (const auto& [key, tenant] : unreadable) {
    EraseLocked(key, tenant, "cache_evict");
  }
  stats_.churn_evictions += static_cast<int64_t>(unreadable.size());
  return static_cast<int64_t>(unreadable.size());
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TotalEntriesLocked();
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ResultCache::PinOutputsLocked(const Entry& entry, int sign) {
  for (const CachedOutput& out : entry.outputs) {
    if (out.is_value) continue;
    auto [it, inserted] = pinned_paths_.emplace(out.path, 0);
    it->second += sign;
    if (it->second <= 0) pinned_paths_.erase(it);
  }
}

bool ResultCache::PinsPath(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_paths_.find(path) != pinned_paths_.end();
}

size_t ResultCache::TotalEntriesLocked() const {
  size_t total = 0;
  for (const auto& [key, by_tenant] : entries_) total += by_tenant.size();
  return total;
}

}  // namespace hiway
