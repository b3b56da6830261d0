#include "tests/oracles/provenance_oracle.h"

#include <mutex>

namespace hiway {

bool ProvenanceOracle::HasSuccessfulTaskEnd(const ProvenanceView& view,
                                            const std::string& signature,
                                            TaskId task) {
  for (const ProvenanceEvent& ev : view.Events()) {
    if (ev.type != ProvenanceEventType::kTaskEnd || !ev.success) continue;
    if (ev.signature != signature) continue;
    if (task != kInvalidTask && ev.task_id != task) continue;
    return true;
  }
  return false;
}

Result<double> ProvenanceOracle::LatestRuntime(const ProvenanceView& view,
                                               const std::string& signature,
                                               int32_t node) {
  // The paper's strategy is "always use the latest observed runtime" to
  // adapt quickly to infrastructure changes: take the per-shard latest
  // match, then the globally newest among those (merged order).
  bool found = false;
  int64_t best_seq = -1;
  double best_ts = 0.0;
  double best = 0.0;
  for (const ProvenanceShard* shard : view.shards_) {
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

std::vector<std::pair<int32_t, double>> ProvenanceOracle::RuntimeObservations(
    const ProvenanceView& view, const std::string& signature) {
  std::vector<std::pair<int32_t, double>> out;
  for (const ProvenanceEvent& ev : view.Events()) {
    if (ev.type == ProvenanceEventType::kTaskEnd && ev.success &&
        ev.signature == signature) {
      out.emplace_back(ev.node, ev.duration);
    }
  }
  return out;
}

void ProvenanceOracle::LoadFromView(const ProvenanceView& view,
                                    RuntimeEstimator* estimator) {
  for (const ProvenanceEvent& ev : view.Events()) {
    if (ev.type == ProvenanceEventType::kTaskEnd && ev.success &&
        ev.node >= 0) {
      estimator->Observe(ev.signature, ev.node, ev.duration);
    }
  }
}

ProvenanceOracle::LookupClass ProvenanceOracle::ClassifyLookup(
    const ResultCache& cache, const TaskSpec& spec,
    const std::string& tenant) {
  // An empty tenant is the cache's "default" namespace.
  const std::string want = tenant.empty() ? std::string("default") : tenant;
  auto key = cache.KeyFor(spec);
  if (!key.ok()) return LookupClass::kMiss;
  std::lock_guard<std::mutex> lock(cache.mu_);
  auto it = cache.entries_.find(*key);
  if (it == cache.entries_.end()) return LookupClass::kMiss;
  auto tit = it->second.find(want);
  if (tit == it->second.end()) return LookupClass::kTenantDenied;
  const ResultCache::Entry& entry = tit->second;
  if (cache.TenantOfLocked(entry.run_id) != want ||
      !HasSuccessfulTaskEnd(cache.provenance_->ViewOf({entry.run_id}),
                            entry.signature, entry.task_id)) {
    return LookupClass::kUnresolved;
  }
  return LookupClass::kResolved;
}

int ProvenanceOracle::CountResolutionMismatches(const ResultCache& cache) {
  std::lock_guard<std::mutex> lock(cache.mu_);
  int mismatches = 0;
  for (const auto& [key, by_tenant] : cache.entries_) {
    for (const auto& [tenant, entry] : by_tenant) {
      bool scan = HasSuccessfulTaskEnd(
          cache.provenance_->ViewOf({entry.run_id}), entry.signature,
          entry.task_id);
      if (scan != cache.ResolvedByProvenance(entry)) ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace hiway
