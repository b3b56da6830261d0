#include "src/lang/galaxy_source.h"

#include <algorithm>
#include <set>

#include "src/common/json.h"
#include "src/common/strings.h"
#include "src/lang/workflow_validate.h"

namespace hiway {

namespace {

/// Galaxy tool ids look like
/// "toolshed.g2.bx.psu.edu/repos/devteam/tophat2/tophat2/2.1.0" or plain
/// "tophat2"; the profile name is the second-to-last segment (the tool
/// name) when versioned, else the id itself.
std::string ToolNameFromId(const std::string& tool_id) {
  std::vector<std::string> parts = StrSplit(tool_id, '/');
  if (parts.size() >= 2) {
    return parts[parts.size() - 2];
  }
  return tool_id;
}

}  // namespace

Result<std::unique_ptr<GalaxySource>> GalaxySource::Parse(
    std::string_view json_text,
    const std::map<std::string, std::string>& inputs,
    const std::string& output_dir) {
  HIWAY_ASSIGN_OR_RETURN(Json doc, Json::Parse(json_text));
  if (!doc.is_object()) {
    return Status::ParseError("Galaxy workflow must be a JSON object");
  }
  auto source = std::unique_ptr<GalaxySource>(new GalaxySource());
  source->name_ = doc.GetString("name", "galaxy-workflow");
  const Json* steps = doc.Find("steps");
  if (steps == nullptr || !steps->is_object()) {
    return Status::ParseError("Galaxy workflow has no \"steps\" object");
  }

  // Pass 1: resolve every step's outputs to DFS paths.
  //   data_input steps -> the user-provided path;
  //   tool steps       -> generated paths under output_dir.
  // step_outputs[step_id][output_name] = path.
  std::map<int64_t, std::map<std::string, std::string>> step_outputs;
  struct RawStep {
    int64_t id;
    std::string type;
    std::string tool_id;
    const Json* json;
  };
  std::vector<RawStep> raw_steps;
  for (const auto& [key, step] : steps->as_object()) {
    if (!step.is_object()) {
      return Status::ParseError("Galaxy step " + key + " is not an object");
    }
    RawStep raw;
    raw.id = step.GetInt("id", -1);
    if (raw.id < 0) {
      auto parsed = ParseInt64(key);
      if (!parsed.ok()) {
        return Status::ParseError("Galaxy step without id: " + key);
      }
      raw.id = *parsed;
    }
    // Bound ids so task.id = id + 1 cannot overflow and generated paths stay
    // sane; fuzz-found via "id": 1e300 (saturates to INT64_MAX) and huge keys.
    constexpr int64_t kMaxStepId = int64_t{1} << 31;
    if (raw.id < 0 || raw.id > kMaxStepId) {
      return Status::ParseError(
          StrFormat("Galaxy step %s has out-of-range id %lld (allowed 0..%lld)",
                    key.c_str(), static_cast<long long>(raw.id),
                    static_cast<long long>(kMaxStepId)));
    }
    raw.type = step.GetString("type", "tool");
    raw.tool_id = step.GetString("tool_id");
    raw.json = &step;
    raw_steps.push_back(raw);
  }
  std::sort(raw_steps.begin(), raw_steps.end(),
            [](const RawStep& a, const RawStep& b) { return a.id < b.id; });
  for (size_t i = 1; i < raw_steps.size(); ++i) {
    if (raw_steps[i].id == raw_steps[i - 1].id) {
      return Status::ParseError(StrFormat(
          "duplicate Galaxy step id %lld (two steps would collide on the "
          "same task id and output paths)",
          static_cast<long long>(raw_steps[i].id)));
    }
  }

  for (const RawStep& raw : raw_steps) {
    if (raw.type == "data_input" || raw.type == "data_collection_input") {
      // Placeholder: resolve against the provided input map by the input
      // name, the label, or "input_<id>".
      std::string input_name;
      const Json* step_inputs = raw.json->Find("inputs");
      if (step_inputs != nullptr && step_inputs->is_array() &&
          !step_inputs->as_array().empty()) {
        input_name = step_inputs->as_array()[0].GetString("name");
      }
      if (input_name.empty()) input_name = raw.json->GetString("label");
      std::string path;
      auto it = inputs.find(input_name);
      if (it != inputs.end()) {
        path = it->second;
      } else {
        auto fallback =
            inputs.find(StrFormat("input_%lld",
                                  static_cast<long long>(raw.id)));
        if (fallback != inputs.end()) {
          path = fallback->second;
        }
      }
      if (path.empty()) {
        return Status::InvalidArgument(
            StrFormat("Galaxy input placeholder '%s' (step %lld) was not "
                      "resolved; pass it in the inputs map",
                      input_name.c_str(), static_cast<long long>(raw.id)));
      }
      step_outputs[raw.id]["output"] = path;
      continue;
    }
    // Tool step: one generated path per declared output.
    const Json* outputs = raw.json->Find("outputs");
    auto& out_map = step_outputs[raw.id];
    if (outputs != nullptr && outputs->is_array()) {
      for (const Json& out : outputs->as_array()) {
        std::string out_name = out.GetString("name", "output");
        std::string ext = out.GetString("type", "dat");
        out_map[out_name] = StrFormat(
            "%s/step%lld/%s.%s", output_dir.c_str(),
            static_cast<long long>(raw.id), out_name.c_str(), ext.c_str());
      }
    }
    if (out_map.empty()) {
      out_map["output"] = StrFormat("%s/step%lld/output.dat",
                                    output_dir.c_str(),
                                    static_cast<long long>(raw.id));
    }
  }

  // Pass 2: build TaskSpecs for tool steps.
  std::set<std::string> consumed;
  for (const RawStep& raw : raw_steps) {
    if (raw.type == "data_input" || raw.type == "data_collection_input") {
      continue;
    }
    if (raw.tool_id.empty()) {
      return Status::ParseError(StrFormat(
          "Galaxy tool step %lld has no tool_id",
          static_cast<long long>(raw.id)));
    }
    TaskSpec task;
    task.id = raw.id + 1;  // step ids are 0-based; task ids must be >= 1
    task.signature = ToolNameFromId(raw.tool_id);
    task.tool = task.signature;
    task.command = raw.tool_id;
    const Json* connections = raw.json->Find("input_connections");
    if (connections != nullptr && connections->is_object()) {
      for (const auto& [input_name, conn] : connections->as_object()) {
        // A connection is {"id": N, "output_name": "..."} or a list of
        // such objects (multi-input tools).
        std::vector<const Json*> conns;
        if (conn.is_array()) {
          for (const Json& c : conn.as_array()) conns.push_back(&c);
        } else {
          conns.push_back(&conn);
        }
        for (const Json* c : conns) {
          int64_t src_step = c->GetInt("id", -1);
          std::string out_name = c->GetString("output_name", "output");
          auto sit = step_outputs.find(src_step);
          if (sit == step_outputs.end()) {
            return Status::ParseError(StrFormat(
                "step %lld connects to unknown step %lld",
                static_cast<long long>(raw.id),
                static_cast<long long>(src_step)));
          }
          auto oit = sit->second.find(out_name);
          if (oit == sit->second.end()) {
            return Status::ParseError(StrFormat(
                "step %lld connects to unknown output '%s' of step %lld",
                static_cast<long long>(raw.id), out_name.c_str(),
                static_cast<long long>(src_step)));
          }
          task.input_files.push_back(oit->second);
          consumed.insert(oit->second);
        }
      }
    }
    for (const auto& [out_name, path] : step_outputs[raw.id]) {
      OutputSpec out;
      out.param = out_name;
      out.path = path;
      task.outputs.push_back(std::move(out));
    }
    source->tasks_.push_back(std::move(task));
  }
  if (source->tasks_.empty()) {
    return Status::ParseError("Galaxy workflow contains no tool steps");
  }
  HIWAY_RETURN_IF_ERROR(ValidateWorkflowTasks(source->tasks_)
                            .WithContext("invalid Galaxy task graph"));

  // Targets: tool outputs nothing consumes.
  for (const TaskSpec& t : source->tasks_) {
    for (const OutputSpec& o : t.outputs) {
      if (consumed.find(o.path) == consumed.end()) {
        source->targets_.push_back(o.path);
      }
    }
  }
  return source;
}

}  // namespace hiway
