// Test-only reference implementations for the ResourceManager: the naive
// allocation pass and the from-scratch fairness index that the RM's
// incremental engines are checked against (ctest -L scale) and timed
// against (bench_scale).
//
// FullScanPass rebuilds the eligible candidate list for every single
// pick and lets the policy's reference scorer (SelectNextFifo /
// SelectNextCapacity / SelectNextFair in rm_oracle.cc) re-score all of
// it, then places with the rotating full-fleet scan: O(pending² +
// pending·nodes) per pass, the direct transcription of the policy rules
// in src/yarn/rm_scheduler.h.
// The production engines (FifoPass, GroupedPass in yarn.cc) must make
// exactly the same decisions, so every schedule and every fairness
// figure agrees bit for bit.

#ifndef HIWAY_TESTS_ORACLES_RM_ORACLE_H_
#define HIWAY_TESTS_ORACLES_RM_ORACLE_H_

#include <vector>

#include "src/yarn/rm_scheduler.h"
#include "src/yarn/yarn.h"

namespace hiway {

/// Friend of ResourceManager: drives the reference pass through the RM's
/// private pass hook and reads its state for the fairness index.
class RmOracle {
 public:
  /// From now on every allocation pass of `rm` runs FullScanPass with
  /// the scorer of the RM's policy instead of the production engine.
  static void UseFullScanPass(ResourceManager* rm);

  /// The instantaneous Jain index of per-application demand satisfaction,
  /// computed from scratch in ascending app id: the value the RM's
  /// incremental aggregates must reproduce. 1.0 when uncontended (fewer
  /// than two apps with demand, or nobody backlogged).
  static double InstantFairness(const ResourceManager& rm);

 private:
  static bool ContendedFairness(const ResourceManager& rm, double* jain);
  static void FullScanPass(ResourceManager* rm,
                           std::vector<ResourceManager::PassSlot>& slots,
                           const RmTenancyView& view,
                           int* pass_allocations);
};

}  // namespace hiway

#endif  // HIWAY_TESTS_ORACLES_RM_ORACLE_H_
