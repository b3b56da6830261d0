// Hi-WAY's "light-weight client program" (Sec. 3.1): takes a staged
// workflow (any supported language), spawns a dedicated AM instance, and
// runs it to completion under a chosen scheduling policy. Shared by the
// examples, the benchmark harnesses, and the integration tests.

#ifndef HIWAY_CORE_CLIENT_H_
#define HIWAY_CORE_CLIENT_H_

#include <memory>
#include <string>

#include "src/core/hiway_am.h"
#include "src/infra/karamel.h"

namespace hiway {

/// A freshly wired AM and the scheduler it drives (the AM borrows it, so
/// `scheduler` is declared first and destroyed last).
struct AmLaunch {
  std::unique_ptr<WorkflowScheduler> scheduler;
  std::unique_ptr<HiWayAm> am;
};

class HiWayClient {
 public:
  /// Does not take ownership of the deployment.
  explicit HiWayClient(Deployment* deployment) : deployment_(deployment) {}

  /// Instantiates a WorkflowSource for a staged workflow by language
  /// ("cuneiform" | "dax" | "galaxy" | "trace").
  Result<std::unique_ptr<WorkflowSource>> MakeSource(
      const StagedWorkflow& staged) const;

  /// Submits the named staged workflow under the given scheduling policy
  /// ("fcfs" | "data-aware" | "round-robin" | "heft") and drives the
  /// engine until it finishes.
  Result<WorkflowReport> Run(const std::string& workflow_name,
                             const std::string& policy,
                             const HiWayOptions& options = HiWayOptions());

  /// Same, for an externally constructed source.
  Result<WorkflowReport> RunSource(WorkflowSource* source,
                                   const std::string& policy,
                                   const HiWayOptions& options =
                                       HiWayOptions());

  /// Builds the scheduler for `policy` and an AM wired to every
  /// deployment service an AM uses: tracer, result cache (scoped to
  /// `tenant`), staging cache and GC. The only place an AM is built, so
  /// single runs, service starts and failover attempts get the same
  /// subsystems.
  Result<AmLaunch> MakeAm(const std::string& policy,
                          const HiWayOptions& options,
                          std::string tenant) const;

 private:
  Deployment* deployment_;
};

}  // namespace hiway

#endif  // HIWAY_CORE_CLIENT_H_
