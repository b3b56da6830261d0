#include "src/lang/cwl_source.h"

#include <map>
#include <set>

#include "src/common/json.h"
#include "src/common/strings.h"
#include "src/lang/workflow_validate.h"

namespace hiway {

namespace {

/// CWL lets `inputs`/`outputs`/`steps` be either an array of objects with
/// an `id` field or an object keyed by id. Normalises both spellings to
/// (id, entry) pairs in document order.
Result<std::vector<std::pair<std::string, const Json*>>> IdEntries(
    const Json& node, const char* section) {
  std::vector<std::pair<std::string, const Json*>> entries;
  if (node.is_array()) {
    for (const Json& entry : node.as_array()) {
      if (!entry.is_object()) {
        return Status::ParseError(
            StrFormat("CWL %s entry is not an object", section));
      }
      std::string id = entry.GetString("id");
      if (id.empty()) {
        return Status::ParseError(
            StrFormat("CWL %s entry has no id", section));
      }
      entries.emplace_back(std::move(id), &entry);
    }
  } else if (node.is_object()) {
    for (const auto& [id, entry] : node.as_object()) {
      if (!entry.is_object()) {
        return Status::ParseError(StrFormat(
            "CWL %s entry '%s' is not an object", section, id.c_str()));
      }
      entries.emplace_back(id, &entry);
    }
  } else {
    return Status::ParseError(StrFormat(
        "CWL %s section must be an array or an id-keyed object", section));
  }
  std::set<std::string> seen;
  for (const auto& [id, entry] : entries) {
    if (!seen.insert(id).second) {
      return Status::ParseError(
          StrFormat("duplicate CWL %s id '%s'", section, id.c_str()));
    }
  }
  return entries;
}

/// Reads the `hiway:size_bytes` extension; absent -> 0.
Result<int64_t> SizeExtension(const Json& entry, const std::string& id) {
  const Json* size = entry.Find("hiway:size_bytes");
  if (size == nullptr) return int64_t{0};
  if (!size->is_number()) {
    return Status::ParseError(StrFormat(
        "CWL '%s': hiway:size_bytes must be a number", id.c_str()));
  }
  int64_t bytes = size->as_int();
  if (bytes < 0) {
    return Status::ParseError(StrFormat(
        "CWL '%s': negative hiway:size_bytes %lld", id.c_str(),
        static_cast<long long>(bytes)));
  }
  return bytes;
}

std::string CommandOf(const Json& run) {
  const Json* base = run.Find("baseCommand");
  std::string command;
  if (base != nullptr && base->is_array()) {
    for (const Json& part : base->as_array()) {
      if (!part.is_string()) continue;
      if (!command.empty()) command += ' ';
      command += part.as_string();
    }
  } else if (base != nullptr && base->is_string()) {
    command = base->as_string();
  }
  const Json* arguments = run.Find("arguments");
  if (arguments != nullptr && arguments->is_array()) {
    for (const Json& arg : arguments->as_array()) {
      if (!arg.is_string()) continue;
      if (!command.empty()) command += ' ';
      command += arg.as_string();
    }
  }
  return command;
}

}  // namespace

Result<std::unique_ptr<CwlSource>> CwlSource::Parse(
    std::string_view json_text, const std::string& output_dir) {
  HIWAY_ASSIGN_OR_RETURN(Json doc, Json::Parse(json_text));
  if (!doc.is_object()) {
    return Status::ParseError("CWL document must be a JSON object");
  }
  std::string doc_class = doc.GetString("class");
  if (doc_class != "Workflow") {
    return Status::ParseError(StrFormat(
        "CWL document class must be 'Workflow', got '%s' (the front-end "
        "runs CommandLineTools only as inline step processes)",
        doc_class.c_str()));
  }
  auto source = std::unique_ptr<CwlSource>(new CwlSource());
  source->name_ = doc.GetString("id", "cwl-workflow");

  // Workflow inputs: id -> staged DFS path.
  std::map<std::string, std::string> path_of_ref;
  const Json* inputs = doc.Find("inputs");
  if (inputs != nullptr) {
    HIWAY_ASSIGN_OR_RETURN(auto input_entries, IdEntries(*inputs, "inputs"));
    for (const auto& [id, entry] : input_entries) {
      std::string type = entry->GetString("type", "File");
      if (type != "File") {
        return Status::ParseError(StrFormat(
            "CWL input '%s' has unsupported type '%s' (subset: File)",
            id.c_str(), type.c_str()));
      }
      const Json* def = entry->Find("default");
      if (def == nullptr || !def->is_object()) {
        return Status::ParseError(StrFormat(
            "CWL input '%s' needs a default File object carrying the DFS "
            "location",
            id.c_str()));
      }
      std::string location = def->GetString("location");
      if (location.empty()) location = def->GetString("path");
      if (location.empty()) {
        return Status::ParseError(StrFormat(
            "CWL input '%s' default File has no location/path", id.c_str()));
      }
      HIWAY_ASSIGN_OR_RETURN(int64_t bytes, SizeExtension(*def, id));
      path_of_ref[id] = location;
      source->required_inputs_.emplace_back(location, bytes);
    }
  }

  const Json* steps = doc.Find("steps");
  if (steps == nullptr) {
    return Status::ParseError("CWL workflow has no steps section");
  }
  HIWAY_ASSIGN_OR_RETURN(auto step_entries, IdEntries(*steps, "steps"));
  if (step_entries.empty()) {
    return Status::ParseError("CWL workflow contains no steps");
  }

  // Pass 1: resolve every step output to a DFS path so `in` sources can
  // reference steps in any order.
  for (const auto& [step_id, step] : step_entries) {
    const Json* run = step->Find("run");
    if (run == nullptr || !run->is_object()) {
      if (run != nullptr && run->is_string()) {
        return Status::ParseError(StrFormat(
            "CWL step '%s' references external process '%s'; the subset "
            "requires an inline run",
            step_id.c_str(), run->as_string().c_str()));
      }
      return Status::ParseError(StrFormat(
          "CWL step '%s' has no inline run process", step_id.c_str()));
    }
    std::string run_class = run->GetString("class");
    if (run_class != "CommandLineTool") {
      return Status::ParseError(StrFormat(
          "CWL step '%s' run class must be 'CommandLineTool', got '%s'",
          step_id.c_str(), run_class.c_str()));
    }
    const Json* outputs = run->Find("outputs");
    if (outputs == nullptr) {
      return Status::ParseError(StrFormat(
          "CWL step '%s' tool declares no outputs", step_id.c_str()));
    }
    HIWAY_ASSIGN_OR_RETURN(auto out_entries, IdEntries(*outputs, "outputs"));
    for (const auto& [out_id, out] : out_entries) {
      std::string path = out->GetString("hiway:location");
      if (path.empty()) {
        std::string base = out_id;
        const Json* binding = out->Find("outputBinding");
        if (binding != nullptr) {
          std::string glob = binding->GetString("glob");
          if (!glob.empty()) base = glob;
        }
        path = StrFormat("%s/%s/%s", output_dir.c_str(), step_id.c_str(),
                         base.c_str());
      }
      std::string ref = step_id + "/" + out_id;
      if (path_of_ref.count(ref) > 0) {
        return Status::ParseError(
            StrFormat("duplicate CWL output reference '%s'", ref.c_str()));
      }
      path_of_ref[ref] = path;
    }
  }

  // Pass 2: build one task per step.
  std::set<std::string> consumed;
  TaskId next_id = 1;
  for (const auto& [step_id, step] : step_entries) {
    const Json& run = *step->Find("run");
    TaskSpec task;
    task.id = next_id++;
    std::string base_command = CommandOf(run);
    task.signature = StrSplit(base_command, ' ')[0];
    if (task.signature.empty()) {
      return Status::ParseError(StrFormat(
          "CWL step '%s' tool has no baseCommand", step_id.c_str()));
    }
    task.tool = task.signature;
    task.command = base_command;

    const Json* in = step->Find("in");
    if (in != nullptr) {
      HIWAY_ASSIGN_OR_RETURN(auto in_entries, IdEntries(*in, "in"));
      for (const auto& [in_id, binding] : in_entries) {
        std::string ref = binding->GetString("source");
        if (ref.empty()) {
          return Status::ParseError(StrFormat(
              "CWL step '%s' in '%s' has no source", step_id.c_str(),
              in_id.c_str()));
        }
        auto it = path_of_ref.find(ref);
        if (it == path_of_ref.end()) {
          return Status::ParseError(StrFormat(
              "CWL step '%s' in '%s' references unknown source '%s'",
              step_id.c_str(), in_id.c_str(), ref.c_str()));
        }
        task.input_files.push_back(it->second);
        consumed.insert(it->second);
      }
    }

    const Json* out = step->Find("out");
    if (out == nullptr || !out->is_array() || out->as_array().empty()) {
      return Status::ParseError(StrFormat(
          "CWL step '%s' must list its published outputs in out",
          step_id.c_str()));
    }
    HIWAY_ASSIGN_OR_RETURN(auto out_entries,
                           IdEntries(*run.Find("outputs"), "outputs"));
    std::map<std::string, const Json*> tool_outputs(out_entries.begin(),
                                                    out_entries.end());
    for (const Json& published : out->as_array()) {
      if (!published.is_string()) {
        return Status::ParseError(StrFormat(
            "CWL step '%s' out entries must be output-id strings",
            step_id.c_str()));
      }
      const std::string& out_id = published.as_string();
      auto oit = tool_outputs.find(out_id);
      if (oit == tool_outputs.end()) {
        return Status::ParseError(StrFormat(
            "CWL step '%s' publishes unknown tool output '%s'",
            step_id.c_str(), out_id.c_str()));
      }
      OutputSpec spec;
      spec.param = out_id;
      spec.path = path_of_ref.at(step_id + "/" + out_id);
      HIWAY_ASSIGN_OR_RETURN(int64_t bytes,
                             SizeExtension(*oit->second,
                                           step_id + "/" + out_id));
      if (bytes > 0) spec.size_bytes = bytes;
      task.outputs.push_back(std::move(spec));
    }
    source->tasks_.push_back(std::move(task));
  }
  HIWAY_RETURN_IF_ERROR(ValidateWorkflowTasks(source->tasks_)
                            .WithContext("invalid CWL task graph"));

  // Targets: declared workflow outputs when present, else every produced
  // path nothing consumes.
  const Json* wf_outputs = doc.Find("outputs");
  if (wf_outputs != nullptr &&
      !(wf_outputs->is_array() && wf_outputs->as_array().empty()) &&
      !(wf_outputs->is_object() && wf_outputs->as_object().empty())) {
    HIWAY_ASSIGN_OR_RETURN(auto out_entries,
                           IdEntries(*wf_outputs, "outputs"));
    for (const auto& [out_id, out] : out_entries) {
      std::string ref = out->GetString("outputSource");
      if (ref.empty()) {
        return Status::ParseError(StrFormat(
            "CWL workflow output '%s' has no outputSource", out_id.c_str()));
      }
      auto it = path_of_ref.find(ref);
      if (it == path_of_ref.end()) {
        return Status::ParseError(StrFormat(
            "CWL workflow output '%s' references unknown source '%s'",
            out_id.c_str(), ref.c_str()));
      }
      source->targets_.push_back(it->second);
    }
  } else {
    for (const TaskSpec& t : source->tasks_) {
      for (const OutputSpec& o : t.outputs) {
        if (consumed.find(o.path) == consumed.end()) {
          source->targets_.push_back(o.path);
        }
      }
    }
  }
  return source;
}

}  // namespace hiway
