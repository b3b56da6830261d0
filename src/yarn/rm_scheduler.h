// Scoring rules of the ResourceManager's closed set of policies (the
// counterpart of YARN's FifoScheduler / CapacityScheduler /
// FairScheduler), plus preemption victim selection.
//
// An allocation pass repeatedly picks the pending request to try next,
// attempts the placement (locality preference, strict placement,
// blacklists — shared by all policies), and picks again. RmPolicy
// (src/yarn/yarn.h) selects the order:
//
//  * fifo     — arrival order; byte-for-byte the seed RM behaviour.
//  * capacity — hierarchical queues with guaranteed and maximum shares:
//               the queue furthest below its guarantee (smallest
//               dominant share / guaranteed share, ties to the smaller
//               queue name) is served first, FIFO within a queue, and no
//               queue may exceed its maximum share.
//  * fair     — dominant-resource fairness (DRF, Ghodsi et al.) across
//               applications: the app with the smallest dominant share /
//               queue weight (ties to the smaller app id) is served
//               first, FIFO within an app. Queue maximum shares are still
//               enforced.
//
// Each policy has one implementation, a pass engine in yarn.cc (FifoPass,
// GroupedPass). The naive re-score-every-pick loop they are checked
// against is the test oracle in tests/oracles/rm_oracle.h.

#ifndef HIWAY_YARN_RM_SCHEDULER_H_
#define HIWAY_YARN_RM_SCHEDULER_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/flat_hash.h"
#include "src/yarn/yarn.h"

namespace hiway {

/// Read-only multi-tenancy state the RM scores policies and preemption
/// against. All maps are owned by the RM. The per-tenant stats are
/// flat-hash maps (unordered iteration, stable references; see
/// src/common/flat_hash.h) — code that needs a deterministic order over
/// them must sort, as SelectPreemptionVictims does via its std::map
/// working copy.
struct RmTenancyView {
  int total_vcores = 0;
  double total_memory_mb = 0.0;
  const FlatHashMap<ApplicationId, TenantStats>* app_stats = nullptr;
  const FlatHashMap<std::string, TenantStats>* queue_stats = nullptr;
  const std::map<std::string, RmQueueConfig>* queue_configs = nullptr;

  /// Dominant share of `u` relative to live cluster capacity (DRF's
  /// "dominant resource": whichever of cores or memory is scarcer for
  /// this tenant).
  double DominantShare(const ResourceUsage& u) const;

  /// Would granting `r` keep `queue` within its maximum share?
  bool WithinMaxShare(const std::string& queue,
                      const ContainerRequest& r) const;
};

/// One running container offered as a potential preemption victim, with
/// the queue its application is charged to (resolved by the RM).
struct PreemptionCandidate {
  Container container;
  const std::string* queue = nullptr;
};

/// Victim selection for container preemption (docs/scheduling-model.md):
/// picks up to `max_victims` containers to kill so `starved_queue` can
/// reclaim `needed` (vcores and memory both). Rules, in order:
///
///  * AM containers and the starved queue's own containers are exempt.
///  * Only queues currently ABOVE their guaranteed share donate, and the
///    donor's bookkept usage shrinks with every pick, so one round never
///    preempts a queue meaningfully below its guarantee.
///  * Victims come from the most-over-guarantee donor first; within a
///    donor, lowest `Container::priority` first, then youngest container
///    (least work lost), ties broken by descending id.
///  * Selection stops as soon as the freed resources cover `needed`.
///
/// Returns container ids in kill order. Pure function of its inputs —
/// the RM applies the kills.
std::vector<ContainerId> SelectPreemptionVictims(
    const std::vector<PreemptionCandidate>& candidates,
    const RmTenancyView& view, const std::string& starved_queue,
    const ResourceUsage& needed, int max_victims);

}  // namespace hiway

#endif  // HIWAY_YARN_RM_SCHEDULER_H_
