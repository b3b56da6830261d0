// Test-only full scans over provenance history: the reference answers the
// production query paths are checked against.
//
// ProvenanceShard::HasSuccessfulTaskEnd answers the result cache's one
// question of another run's history — "did run R end (signature, task)
// successfully?" — from a success index maintained on append.
// HasSuccessfulTaskEnd here is the scan it replaced: copy the merged
// events of a view and look for a matching successful task end. Both
// must agree for every run, signature and task id, across sealing,
// adoption, reopened ProvDb segments, unstamped (foreign) events and
// ProvenanceManager::Clear (provenance_index_test).
//
// The runtime statistics (LatestRuntime, RuntimeObservations) and the
// estimator bulk load have no production caller: they are the reference
// scans the provenance suites use to check merged-order semantics, and
// bench_provenance_sharding times them.

#ifndef HIWAY_TESTS_ORACLES_PROVENANCE_ORACLE_H_
#define HIWAY_TESTS_ORACLES_PROVENANCE_ORACLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/result_cache.h"
#include "src/common/result.h"
#include "src/core/provenance.h"
#include "src/core/runtime_estimator.h"

namespace hiway {

/// Friend of ProvenanceView (per-shard scans) and ResultCache (reads its
/// sealed entries to classify lookups the way a scan-backed resolution
/// would).
class ProvenanceOracle {
 public:
  /// True when some merged event of `view` is a successful task end for
  /// `signature` and `task` (`kInvalidTask`: any task). An empty view —
  /// the run's shard is gone — answers false.
  static bool HasSuccessfulTaskEnd(const ProvenanceView& view,
                                   const std::string& signature, TaskId task);

  /// Latest observed runtime of `signature` on `node` across the viewed
  /// shards; NotFound when the pair was never observed. "Latest" follows
  /// merged order, matching a newest-to-oldest scan of a single store.
  static Result<double> LatestRuntime(const ProvenanceView& view,
                                      const std::string& signature,
                                      int32_t node);

  /// All observed (node, runtime) samples for a signature in merged
  /// order, oldest first.
  static std::vector<std::pair<int32_t, double>> RuntimeObservations(
      const ProvenanceView& view, const std::string& signature);

  /// Feeds every successful task end of `view` with a node, in merged
  /// order, to `estimator` (so "latest" matches a single-store load of
  /// the same schedule).
  static void LoadFromView(const ProvenanceView& view,
                           RuntimeEstimator* estimator);

  /// How a lookup of (`spec`, `tenant`) in `cache` is classified before
  /// any DFS freshness check, with provenance resolution done by the
  /// scan above instead of the shard index. Reads the cache without
  /// changing it (no counters, no LRU recency).
  enum class LookupClass {
    kMiss,          // no key, or no entry under it
    kTenantDenied,  // entries exist only under other tenants
    kUnresolved,    // the producing run's history does not vouch
    kResolved,      // would be served if its outputs are fresh
  };
  static LookupClass ClassifyLookup(const ResultCache& cache,
                                    const TaskSpec& spec,
                                    const std::string& tenant);

  /// Sealed entries of `cache` whose producing shard's index answer
  /// differs from the scan's (0 when the two agree everywhere).
  static int CountResolutionMismatches(const ResultCache& cache);
};

}  // namespace hiway

#endif  // HIWAY_TESTS_ORACLES_PROVENANCE_ORACLE_H_
