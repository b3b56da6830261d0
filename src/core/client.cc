#include "src/core/client.h"

#include "src/lang/cuneiform.h"
#include "src/lang/cwl_source.h"
#include "src/lang/dax_source.h"
#include "src/lang/galaxy_source.h"
#include "src/lang/trace_source.h"

namespace hiway {

Result<std::unique_ptr<WorkflowSource>> HiWayClient::MakeSource(
    const StagedWorkflow& staged) const {
  if (staged.language == "cuneiform") {
    HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<CuneiformSource> source,
                           CuneiformSource::Parse(staged.document));
    return std::unique_ptr<WorkflowSource>(std::move(source));
  }
  if (staged.language == "dax") {
    HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<DaxSource> source,
                           DaxSource::Parse(staged.document));
    return std::unique_ptr<WorkflowSource>(std::move(source));
  }
  if (staged.language == "galaxy") {
    HIWAY_ASSIGN_OR_RETURN(
        std::unique_ptr<GalaxySource> source,
        GalaxySource::Parse(staged.document, staged.galaxy_inputs));
    return std::unique_ptr<WorkflowSource>(std::move(source));
  }
  if (staged.language == "trace") {
    HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<TraceSource> source,
                           TraceSource::Parse(staged.document));
    return std::unique_ptr<WorkflowSource>(std::move(source));
  }
  if (staged.language == "cwl") {
    HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<CwlSource> source,
                           CwlSource::Parse(staged.document));
    return std::unique_ptr<WorkflowSource>(std::move(source));
  }
  return Status::InvalidArgument("unknown workflow language: " +
                                 staged.language);
}

Result<WorkflowReport> HiWayClient::Run(const std::string& workflow_name,
                                        const std::string& policy,
                                        const HiWayOptions& options) {
  auto it = deployment_->workflows.find(workflow_name);
  if (it == deployment_->workflows.end()) {
    return Status::NotFound("no staged workflow named '" + workflow_name +
                            "'; converge its recipe first");
  }
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<WorkflowSource> source,
                         MakeSource(it->second));
  return RunSource(source.get(), policy, options);
}

Result<WorkflowReport> HiWayClient::RunSource(WorkflowSource* source,
                                              const std::string& policy,
                                              const HiWayOptions& options) {
  // Single-shot client runs share the result cache's default namespace.
  HIWAY_ASSIGN_OR_RETURN(AmLaunch launch, MakeAm(policy, options, "default"));
  HIWAY_RETURN_IF_ERROR(launch.am->Submit(source, launch.scheduler.get()));
  return launch.am->RunToCompletion();
}

Result<AmLaunch> HiWayClient::MakeAm(const std::string& policy,
                                     const HiWayOptions& options,
                                     std::string tenant) const {
  AmLaunch launch;
  HIWAY_ASSIGN_OR_RETURN(
      launch.scheduler,
      MakeScheduler(policy, deployment_->dfs.get(), &deployment_->estimator,
                    deployment_->staging_cache.get()));
  launch.am = std::make_unique<HiWayAm>(
      deployment_->cluster.get(), deployment_->rm.get(),
      deployment_->dfs.get(), &deployment_->tools,
      deployment_->provenance.get(), &deployment_->estimator, options);
  launch.am->SetTracer(&deployment_->tracer);
  if (deployment_->result_cache != nullptr) {
    launch.am->SetResultCache(deployment_->result_cache.get(),
                              std::move(tenant));
  }
  if (deployment_->staging_cache != nullptr) {
    launch.am->SetStagingCache(deployment_->staging_cache.get());
  }
  if (deployment_->gc != nullptr) {
    launch.am->SetGc(deployment_->gc.get());
  }
  return launch;
}

}  // namespace hiway
