#include "src/lang/galaxy_source.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "src/common/strings.h"
#include "src/lang/workflow_validate.h"

namespace hiway {

namespace {

/// Galaxy tool ids look like
/// "toolshed.g2.bx.psu.edu/repos/devteam/tophat2/tophat2/2.1.0" or plain
/// "tophat2"; the profile name is the second-to-last segment (the tool
/// name) when versioned, else the id itself.
std::string_view ToolNameFromId(std::string_view tool_id) {
  size_t last = tool_id.rfind('/');
  if (last == std::string_view::npos) return tool_id;
  size_t prev = last == 0 ? std::string_view::npos : tool_id.rfind('/', last - 1);
  size_t begin = prev == std::string_view::npos ? 0 : prev + 1;
  return tool_id.substr(begin, last - begin);
}

/// The string field `key` of `j`, or `def` when it is absent or not a
/// string.
std::string_view StringField(const Json& j, std::string_view key,
                             std::string_view def = {}) {
  const Json* v = j.Find(key);
  return v != nullptr && v->is_string() ? std::string_view(v->as_string())
                                        : def;
}

/// The array field `key` of `j`; empty when it is absent or not an array.
const JsonArray& ArrayField(const Json& j, std::string_view key) {
  static const JsonArray kNone;
  const Json* v = j.Find(key);
  return v != nullptr ? v->as_array() : kNone;
}

/// The "id" field of `j` when it is a number with a fractional part (which
/// as_int() would silently truncate), else nullptr.
const Json* NonIntegralId(const Json& j) {
  const Json* id = j.Find("id");
  return id != nullptr && id->is_number() &&
                 id->as_number() != std::floor(id->as_number())
             ? id
             : nullptr;
}

/// Appends `s` up to its first NUL, as printf's "%s" would: output paths
/// are built by appending pieces, which costs a tenth of formatting them.
void AppendUntilNul(std::string_view s, std::string* out) {
  out->append(s.substr(0, s.find('\0')));
}

bool IsInputStep(std::string_view type) {
  return type == "data_input" || type == "data_collection_input";
}

/// One workflow step. Views point into the parsed document.
struct Step {
  int64_t id;
  std::string_view type;
  std::string_view tool_id;
  const Json* json;
  /// Data-input steps: the DFS path the placeholder resolved to.
  const std::string* input_path = nullptr;
  /// Tool steps: the index of the step's task.
  size_t task = 0;
};

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
  source->name_ = StringField(doc, "name", "galaxy-workflow");
  const Json* steps_json = doc.Find("steps");
  if (steps_json == nullptr || !steps_json->is_object()) {
    return Status::ParseError("Galaxy workflow has no \"steps\" object");
  }

  std::vector<Step> steps;
  steps.reserve(steps_json->as_object().size());
  for (const auto& [key, step] : steps_json->as_object()) {
    if (!step.is_object()) {
      return Status::ParseError("Galaxy step " + key + " is not an object");
    }
    if (const Json* id = NonIntegralId(step)) {
      return Status::ParseError(
          StrFormat("Galaxy step %s has non-integral id %s", key.c_str(),
                    id->Dump().c_str()));
    }
    int64_t id = step.GetInt("id", -1);
    if (id < 0) {
      auto parsed = ParseInt64(key);
      if (!parsed.ok()) {
        return Status::ParseError("Galaxy step without id: " + key);
      }
      id = *parsed;
    }
    // Bound ids so task.id = id + 1 cannot overflow and generated paths stay
    // sane; fuzz-found via "id": 1e300 (saturates to INT64_MAX) and huge keys.
    constexpr int64_t kMaxStepId = int64_t{1} << 31;
    if (id < 0 || id > kMaxStepId) {
      return Status::ParseError(
          StrFormat("Galaxy step %s has out-of-range id %lld (allowed 0..%lld)",
                    key.c_str(), static_cast<long long>(id),
                    static_cast<long long>(kMaxStepId)));
    }
    steps.push_back(Step{id, StringField(step, "type", "tool"),
                         StringField(step, "tool_id"), &step});
  }
  std::sort(steps.begin(), steps.end(),
            [](const Step& a, const Step& b) { return a.id < b.id; });
  for (size_t i = 1; i < steps.size(); ++i) {
    if (steps[i].id == steps[i - 1].id) {
      return Status::ParseError(StrFormat(
          "duplicate Galaxy step id %lld (two steps would collide on the "
          "same task id and output paths)",
          static_cast<long long>(steps[i].id)));
    }
  }

  source->tasks_.reserve(steps.size());
  // Pass 1: resolve every step's outputs to DFS paths.
  //   data_input steps -> the user-provided path, as output "output";
  //   tool steps       -> a task whose outputs, one per declared output
  //                       name in name order, lie under output_dir.
  for (Step& step : steps) {
    if (IsInputStep(step.type)) {
      // Placeholder: resolve against the provided input map by the input
      // name, the label, or "input_<id>".
      std::string input_name;
      const JsonArray& step_inputs = ArrayField(*step.json, "inputs");
      if (!step_inputs.empty()) {
        input_name = StringField(step_inputs[0], "name");
      }
      if (input_name.empty()) input_name = StringField(*step.json, "label");
      auto it = inputs.find(input_name);
      if (it == inputs.end()) {
        it = inputs.find(
            StrFormat("input_%lld", static_cast<long long>(step.id)));
      }
      if (it == inputs.end() || it->second.empty()) {
        return Status::InvalidArgument(
            StrFormat("Galaxy input placeholder '%s' (step %lld) was not "
                      "resolved; pass it in the inputs map",
                      input_name.c_str(), static_cast<long long>(step.id)));
      }
      step.input_path = &it->second;
      continue;
    }
    TaskSpec task;
    task.id = step.id + 1;  // step ids are 0-based; task ids must be >= 1
    // "<output_dir>/step<id>/", the directory of every output of the step.
    std::string step_dir;
    AppendUntilNul(output_dir, &step_dir);
    step_dir += "/step";
    step_dir += std::to_string(step.id);
    step_dir += '/';
    const JsonArray& declared = ArrayField(*step.json, "outputs");
    task.outputs.reserve(std::max<size_t>(declared.size(), 1));
    for (const Json& out : declared) {
      std::string_view name = StringField(out, "name", "output");
      std::string_view type = StringField(out, "type", "dat");
      std::string path;
      path.reserve(step_dir.size() + name.size() + 1 + type.size());
      path += step_dir;
      AppendUntilNul(name, &path);
      path += '.';
      AppendUntilNul(type, &path);
      // A repeated output name keeps its place and takes the last path.
      auto pos = std::lower_bound(
          task.outputs.begin(), task.outputs.end(), name,
          [](const OutputSpec& o, std::string_view n) { return o.param < n; });
      if (pos != task.outputs.end() && pos->param == name) {
        pos->path = std::move(path);
      } else {
        OutputSpec spec;
        spec.param = name;
        spec.path = std::move(path);
        task.outputs.insert(pos, std::move(spec));
      }
    }
    if (task.outputs.empty()) {
      OutputSpec spec;
      spec.param = "output";
      spec.path = step_dir + "output.dat";
      task.outputs.push_back(std::move(spec));
    }
    step.task = source->tasks_.size();
    source->tasks_.push_back(std::move(task));
  }

  // Pass 2: name each tool step's tool and bind its input connections.
  for (const Step& step : steps) {
    if (IsInputStep(step.type)) continue;
    if (step.tool_id.empty()) {
      return Status::ParseError(StrFormat(
          "Galaxy tool step %lld has no tool_id",
          static_cast<long long>(step.id)));
    }
    TaskSpec& task = source->tasks_[step.task];
    task.signature = ToolNameFromId(step.tool_id);
    task.tool = task.signature;
    task.command = step.tool_id;
    const Json* connections = step.json->Find("input_connections");
    if (connections == nullptr) continue;
    task.input_files.reserve(connections->as_object().size());
    for (const auto& [input_name, conn] : connections->as_object()) {
      // A connection is {"id": N, "output_name": "..."} or a list of
      // such objects (multi-input tools).
      const Json* first = &conn;
      const Json* last = first + 1;
      if (conn.is_array()) {
        first = conn.as_array().data();
        last = first + conn.as_array().size();
      }
      for (const Json* c = first; c != last; ++c) {
        if (const Json* id = NonIntegralId(*c)) {
          return Status::ParseError(StrFormat(
              "step %lld input '%s' connects to non-integral step id %s",
              static_cast<long long>(step.id), input_name.c_str(),
              id->Dump().c_str()));
        }
        int64_t src_step = c->GetInt("id", -1);
        std::string_view out_name = StringField(*c, "output_name", "output");
        auto src = std::lower_bound(
            steps.begin(), steps.end(), src_step,
            [](const Step& s, int64_t id) { return s.id < id; });
        if (src == steps.end() || src->id != src_step) {
          return Status::ParseError(StrFormat(
              "step %lld connects to unknown step %lld",
              static_cast<long long>(step.id),
              static_cast<long long>(src_step)));
        }
        const std::string* path = nullptr;
        if (src->input_path != nullptr) {
          if (out_name == "output") path = src->input_path;
        } else {
          for (const OutputSpec& o : source->tasks_[src->task].outputs) {
            if (o.param == out_name) path = &o.path;
          }
        }
        if (path == nullptr) {
          return Status::ParseError(StrFormat(
              "step %lld connects to unknown output '%.*s' of step %lld",
              static_cast<long long>(step.id),
              static_cast<int>(out_name.size()), out_name.data(),
              static_cast<long long>(src_step)));
        }
        task.input_files.push_back(*path);
      }
    }
  }
  if (source->tasks_.empty()) {
    return Status::ParseError("Galaxy workflow contains no tool steps");
  }
  HIWAY_RETURN_IF_ERROR(ValidateWorkflowTasks(source->tasks_)
                            .WithContext("invalid Galaxy task graph"));

  // Targets: tool outputs nothing consumes, in task and output order.
  std::vector<std::string_view> consumed;
  for (const TaskSpec& t : source->tasks_) {
    consumed.insert(consumed.end(), t.input_files.begin(),
                    t.input_files.end());
  }
  std::sort(consumed.begin(), consumed.end());
  for (const TaskSpec& t : source->tasks_) {
    for (const OutputSpec& o : t.outputs) {
      if (!std::binary_search(consumed.begin(), consumed.end(),
                              std::string_view(o.path))) {
        source->targets_.push_back(o.path);
      }
    }
  }
  return source;
}

}  // namespace hiway
