#include "src/yarn/rm_scheduler.h"

#include <algorithm>
#include <cmath>

namespace hiway {

double RmTenancyView::DominantShare(const ResourceUsage& u) const {
  double cores = total_vcores > 0
                     ? static_cast<double>(u.vcores) / total_vcores
                     : 0.0;
  double mem = total_memory_mb > 0.0 ? u.memory_mb / total_memory_mb : 0.0;
  return std::max(cores, mem);
}

bool RmTenancyView::WithinMaxShare(const std::string& queue,
                                   const ContainerRequest& r) const {
  auto cfg_it = queue_configs->find(queue);
  if (cfg_it == queue_configs->end()) return true;  // unknown: no cap
  const RmQueueConfig& cfg = cfg_it->second;
  ResourceUsage used;
  auto qs_it = queue_stats->find(queue);
  if (qs_it != queue_stats->end()) used = qs_it->second.usage;
  double cap_vcores = cfg.max_share * total_vcores;
  double cap_memory = cfg.max_share * total_memory_mb;
  return used.vcores + r.vcores <= cap_vcores + 1e-9 &&
         used.memory_mb + r.memory_mb <= cap_memory + 1e-9;
}

std::vector<ContainerId> SelectPreemptionVictims(
    const std::vector<PreemptionCandidate>& candidates,
    const RmTenancyView& view, const std::string& starved_queue,
    const ResourceUsage& needed, int max_victims) {
  std::vector<ContainerId> victims;
  if (max_victims <= 0) return victims;
  if (needed.vcores <= 0 && needed.memory_mb <= 0.0) return victims;

  // Working copy of per-queue usage, decremented as victims are picked so
  // donor surpluses stay honest within one round.
  std::map<std::string, ResourceUsage> usage;
  if (view.queue_stats != nullptr) {
    for (const auto& [q, qs] : *view.queue_stats) usage[q] = qs.usage;
  }
  auto guaranteed = [&](const std::string& q) {
    if (view.queue_configs == nullptr) return 1.0;
    auto it = view.queue_configs->find(q);
    return it == view.queue_configs->end() ? 1.0
                                           : it->second.guaranteed_share;
  };

  std::vector<const PreemptionCandidate*> pool;
  pool.reserve(candidates.size());
  for (const PreemptionCandidate& c : candidates) {
    if (c.container.is_am) continue;  // AM containers are never preempted
    if (c.queue == nullptr || *c.queue == starved_queue) continue;
    pool.push_back(&c);
  }

  ResourceUsage freed;
  auto satisfied = [&] {
    return freed.vcores >= needed.vcores &&
           freed.memory_mb + 1e-9 >= needed.memory_mb;
  };
  while (!satisfied() && static_cast<int>(victims.size()) < max_victims) {
    size_t best = pool.size();
    double best_surplus = 0.0;
    for (size_t i = 0; i < pool.size(); ++i) {
      const PreemptionCandidate* c = pool[i];
      double surplus =
          view.DominantShare(usage[*c->queue]) - guaranteed(*c->queue);
      if (surplus <= 1e-9) continue;  // donor at/below guarantee: exempt
      if (best == pool.size()) {
        best = i;
        best_surplus = surplus;
        continue;
      }
      const Container& bc = pool[best]->container;
      const Container& cc = c->container;
      bool better;
      if (std::abs(surplus - best_surplus) > 1e-12) {
        better = surplus > best_surplus;  // most-over-guarantee donor first
      } else if (cc.priority != bc.priority) {
        better = cc.priority < bc.priority;  // lowest priority first
      } else if (cc.allocated_at != bc.allocated_at) {
        better = cc.allocated_at > bc.allocated_at;  // youngest: least work
      } else {
        better = cc.id > bc.id;
      }
      if (better) {
        best = i;
        best_surplus = surplus;
      }
    }
    if (best == pool.size()) break;  // no donor above guarantee remains
    const Container& v = pool[best]->container;
    victims.push_back(v.id);
    freed.vcores += v.vcores;
    freed.memory_mb += v.memory_mb;
    ResourceUsage& qu = usage[*pool[best]->queue];
    qu.vcores -= v.vcores;
    qu.memory_mb -= v.memory_mb;
    pool.erase(pool.begin() + static_cast<ptrdiff_t>(best));
  }
  return victims;
}

}  // namespace hiway
