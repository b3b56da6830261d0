// Provenance-trace front-end (Sec. 3.5): a Hi-WAY trace file "holds
// information about all of a workflow's tasks and data dependencies" and
// "can be interpreted as a workflow itself" — the fourth supported
// language. Re-executing a trace replays the exact task invocations
// (signatures, tools, input files, output files) of the recorded run,
// though not necessarily on the same compute nodes.

#ifndef HIWAY_LANG_TRACE_SOURCE_H_
#define HIWAY_LANG_TRACE_SOURCE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/provenance.h"
#include "src/lang/workflow.h"

namespace hiway {

/// required_inputs() are the recorded run's input files that no recorded
/// task produced: re-execution "requires input data to be located ...
/// just like during the workflow run from which the trace file was
/// derived".
class TraceSource : public StaticWorkflowSource {
 public:
  /// Reconstructs a workflow from a JSON-lines trace. When `run_id` is
  /// empty the first recorded run in the trace is replayed. By default
  /// every recorded task must have completed successfully; with
  /// `allow_incomplete` the trace may be a crash prefix — tasks that
  /// never started or never succeeded are dropped and the remaining
  /// completed prefix is replayed (AM-failover traces are exactly such
  /// prefixes; see docs/failure-model.md).
  static Result<std::unique_ptr<TraceSource>> Parse(
      std::string_view trace_text, const std::string& run_id = "",
      bool allow_incomplete = false);

  /// Same, from already-parsed events.
  static Result<std::unique_ptr<TraceSource>> FromEvents(
      const std::vector<ProvenanceEvent>& events,
      const std::string& run_id = "", bool allow_incomplete = false);

  /// Same, from a merged view over provenance shards — e.g. all prior
  /// attempts of one submission for failover memoisation, where each
  /// attempt's crash prefix lives in its own shard.
  static Result<std::unique_ptr<TraceSource>> FromView(
      const ProvenanceView& view, const std::string& run_id = "",
      bool allow_incomplete = false);

 private:
  TraceSource() = default;
};

}  // namespace hiway

#endif  // HIWAY_LANG_TRACE_SOURCE_H_
