#include "tests/oracles/rm_oracle.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <set>
#include <string>

namespace hiway {

namespace {

/// One pending request offered to a reference scorer.
struct RmCandidate {
  /// Position in the allocation pass's slot table.
  size_t slot = 0;
  ApplicationId app = -1;
  /// The application's accounting and its queue's record.
  const TenantStats* stats = nullptr;
  const ResourceManager::QueueState* queue = nullptr;
  const ContainerRequest* request = nullptr;
};

// Reference scorers: the index into `eligible` of the request to try
// next, or -1 to end the pass.

int SelectNextFifo(const std::vector<RmCandidate>& eligible,
                   const RmTenancyView& /*view*/) {
  return eligible.empty() ? -1 : 0;
}

int SelectNextCapacity(const std::vector<RmCandidate>& eligible,
                       const RmTenancyView& view) {
  int best = -1;
  double best_pressure = std::numeric_limits<double>::infinity();
  const std::string* best_queue = nullptr;
  std::set<std::string> seen;
  for (size_t i = 0; i < eligible.size(); ++i) {
    const RmCandidate& c = eligible[i];
    const std::string& queue = c.queue->config.name;
    if (!view.WithinMaxShare(*c.queue, *c.request)) continue;
    // Only each queue's first (oldest) candidate competes; later ones
    // inherit FIFO order within their queue.
    if (!seen.insert(queue).second) continue;
    ResourceUsage used = c.queue->stats.usage;
    double guaranteed = c.queue->config.guaranteed_share;
    if (guaranteed <= 0.0) guaranteed = 1e-9;
    double pressure = view.DominantShare(used) / guaranteed;
    if (pressure < best_pressure ||
        (pressure == best_pressure && best_queue != nullptr &&
         queue < *best_queue)) {
      best_pressure = pressure;
      best = static_cast<int>(i);
      best_queue = &queue;
    }
  }
  return best;
}

int SelectNextFair(const std::vector<RmCandidate>& eligible,
                   const RmTenancyView& view) {
  int best = -1;
  double best_share = std::numeric_limits<double>::infinity();
  ApplicationId best_app = -1;
  std::set<ApplicationId> seen;
  for (size_t i = 0; i < eligible.size(); ++i) {
    const RmCandidate& c = eligible[i];
    if (!view.WithinMaxShare(*c.queue, *c.request)) continue;
    // Only each app's oldest candidate competes (FIFO within app).
    if (!seen.insert(c.app).second) continue;
    ResourceUsage used = c.stats->usage;
    double weight = c.queue->config.weight;
    if (weight <= 0.0) weight = 1e-9;
    double share = view.DominantShare(used) / weight;
    if (share < best_share || (share == best_share && c.app < best_app)) {
      best_share = share;
      best = static_cast<int>(i);
      best_app = c.app;
    }
  }
  return best;
}

/// Jain's fairness index over non-negative values: (Σx)² / (n·Σx²).
/// 1.0 = perfectly fair; 1/n = one tenant holds everything. Returns 1.0
/// for empty or all-zero input.
double JainFairnessIndex(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

}  // namespace

void RmOracle::UseFullScanPass(ResourceManager* rm) {
  rm->pass_hook_ = [rm](std::vector<ResourceManager::PassSlot>& slots,
                        const RmTenancyView& view, int* pass_allocations) {
    FullScanPass(rm, slots, view, pass_allocations);
  };
}

void RmOracle::FullScanPass(ResourceManager* rm,
                            std::vector<ResourceManager::PassSlot>& slots,
                            const RmTenancyView& view,
                            int* pass_allocations) {
  int (*select_next)(const std::vector<RmCandidate>&, const RmTenancyView&) =
      nullptr;
  switch (rm->policy()) {
    case RmPolicy::kFifo: select_next = SelectNextFifo; break;
    case RmPolicy::kCapacity: select_next = SelectNextCapacity; break;
    case RmPolicy::kFair: select_next = SelectNextFair; break;
  }
  // The chosen slot leaves the eligible set whether or not placement
  // succeeds, so the loop terminates.
  std::vector<RmCandidate> eligible;
  while (true) {
    eligible.clear();
    for (size_t i = 0; i < slots.size(); ++i) {
      const ResourceManager::PassSlot& s = slots[i];
      if (s.consumed || !s.eligible) continue;
      RmCandidate c;
      c.slot = i;
      c.app = s.req.app;
      const ResourceManager::AppState& app = rm->apps_.at(s.req.app);
      c.stats = &app.stats;
      c.queue = app.queue;
      c.request = &s.req.request;
      eligible.push_back(c);
    }
    if (eligible.empty()) break;
    int pick = select_next(eligible, view);
    if (pick < 0 || pick >= static_cast<int>(eligible.size())) break;
    ResourceManager::PassSlot& s =
        slots[eligible[static_cast<size_t>(pick)].slot];
    NodeId chosen = rm->TryPlaceScan(s.req.request);
    if (chosen == kInvalidNode) {
      s.eligible = false;
      continue;
    }
    rm->CommitAllocation(s, chosen, pass_allocations);
  }
}

bool RmOracle::ContendedFairness(const ResourceManager& rm, double* jain) {
  // Demand-satisfaction ratio per active application: how much of its
  // demanded dominant share (allocated + queued) the app actually holds.
  // Fairness is only meaningful while >= 2 applications have demand and
  // at least one of them is backlogged.
  std::vector<ApplicationId> ids;
  for (const auto& [app, state] : rm.apps_) {
    if (state.active) ids.push_back(app);
  }
  std::sort(ids.begin(), ids.end());
  RmTenancyView view = rm.TenancyView();
  std::vector<double> xs;
  bool backlogged = false;
  for (ApplicationId app : ids) {
    const TenantStats& stats = rm.apps_.at(app).stats;
    double alloc = view.DominantShare(stats.usage);
    double pend = view.DominantShare(stats.pending);
    if (alloc + pend <= 0.0) continue;
    if (stats.pending_requests > 0) backlogged = true;
    xs.push_back(alloc / (alloc + pend));
  }
  if (xs.size() < 2 || !backlogged) return false;
  *jain = JainFairnessIndex(xs);
  return true;
}

double RmOracle::InstantFairness(const ResourceManager& rm) {
  double jain = 1.0;
  return ContendedFairness(rm, &jain) ? jain : 1.0;
}

}  // namespace hiway
