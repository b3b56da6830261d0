// CWL-subset front-end: proof that the driver's WorkflowSource abstraction
// is language-agnostic (the paper's Sec. 3.3 claim). The subset covers a
// `class: Workflow` document (JSON rendition of CWL) whose steps inline
// `class: CommandLineTool` processes and wire them with in/out/source
// references — enough to express the static DAG workloads (e.g. the
// Montage mosaic) and execute them byte-identically to their native
// front-end (tests/cwl_test.cc).
//
// Supported subset:
//   - top level: cwlVersion, id, class: Workflow, inputs, outputs, steps;
//   - inputs/outputs/steps either as arrays of {id: ...} objects or as
//     id-keyed objects (both spellings are legal CWL);
//   - workflow inputs of type File with a `default` File carrying the DFS
//     location and the `hiway:size_bytes` extension (staged sizes);
//   - steps with inline `run` CommandLineTool, `in` source references
//     ("<input>" or "<step>/<output>"), and `out` listing tool outputs;
//   - tool outputs of type File with `hiway:location` (explicit DFS path;
//     falls back to <output_dir>/<step>/<glob or id>) and optional
//     `hiway:size_bytes`.
// Everything outside the subset fails loudly with a Status naming the
// offending id/reference, never silently degrades.

#ifndef HIWAY_LANG_CWL_SOURCE_H_
#define HIWAY_LANG_CWL_SOURCE_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/lang/workflow.h"

namespace hiway {

/// Fills required_inputs() from the document's `inputs` section.
class CwlSource : public StaticWorkflowSource {
 public:
  /// Parses the JSON rendition of a CWL Workflow document. `output_dir`
  /// is the DFS directory for tool outputs that carry no explicit
  /// `hiway:location`.
  static Result<std::unique_ptr<CwlSource>> Parse(
      std::string_view json_text, const std::string& output_dir = "/cwl-out");

 private:
  CwlSource() = default;
};

}  // namespace hiway

#endif  // HIWAY_LANG_CWL_SOURCE_H_
