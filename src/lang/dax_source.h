// Pegasus DAX front-end (Sec. 3.2): the XML workflow description language
// of the Pegasus SWfMS. DAX workflows are fully static — every job and
// file is explicit — which makes them eligible for the static scheduling
// policies (round-robin, HEFT).
//
// Recognised structure:
//   <adag name="...">
//     <job id="ID0001" name="mProjectPP" [namespace=... version=...]>
//       <argument>...</argument>                 (recorded as the command)
//       <uses file="in.fits"  link="input"  [size="4194304"]/>
//       <uses file="out.fits" link="output" [size="6291456"]/>
//     </job>
//     <child ref="ID0002"><parent ref="ID0001"/></child>*
//   </adag>
//
// Data dependencies are derived from the file sets (the driver's readiness
// rule); explicit <child>/<parent> edges are validated for consistency.

#ifndef HIWAY_LANG_DAX_SOURCE_H_
#define HIWAY_LANG_DAX_SOURCE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/lang/workflow.h"

namespace hiway {

class DaxSource : public StaticWorkflowSource {
 public:
  /// Parses a DAX document. `file_prefix` is prepended to every file name
  /// to form DFS paths (DAX uses bare logical file names).
  static Result<std::unique_ptr<DaxSource>> Parse(
      std::string_view xml_text, const std::string& file_prefix = "/dax/");

 private:
  DaxSource() = default;
};

}  // namespace hiway

#endif  // HIWAY_LANG_DAX_SOURCE_H_
