// Galaxy front-end (Sec. 3.2): executes workflows exported from the Galaxy
// SWfMS as JSON (".ga" files).
//
// In a Galaxy export the workflow inputs are placeholders ("data_input"
// steps); the paper resolves them interactively when the workflow is
// committed — here the caller provides an input-name -> DFS-path map at
// parse time. Tool steps connect to upstream step outputs via
// "input_connections". The resulting task graph is static.

#ifndef HIWAY_LANG_GALAXY_SOURCE_H_
#define HIWAY_LANG_GALAXY_SOURCE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/lang/workflow.h"

namespace hiway {

class GalaxySource : public StaticWorkflowSource {
 public:
  /// Parses an exported Galaxy workflow. `inputs` maps each data_input
  /// step's name (or label) to a DFS path; all placeholders must resolve.
  /// Generated outputs are placed under `output_dir`.
  static Result<std::unique_ptr<GalaxySource>> Parse(
      std::string_view json_text,
      const std::map<std::string, std::string>& inputs,
      const std::string& output_dir = "/galaxy");

 private:
  GalaxySource() = default;
};

}  // namespace hiway

#endif  // HIWAY_LANG_GALAXY_SOURCE_H_
