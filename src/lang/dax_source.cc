#include "src/lang/dax_source.h"

#include <map>
#include <set>

#include "src/common/strings.h"
#include "src/common/xml.h"
#include "src/lang/workflow_validate.h"

namespace hiway {

Result<std::unique_ptr<DaxSource>> DaxSource::Parse(
    std::string_view xml_text, const std::string& file_prefix) {
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> root,
                         ParseXml(xml_text));
  if (root->name != "adag") {
    return Status::ParseError("DAX root element must be <adag>, got <" +
                              root->name + ">");
  }
  auto source = std::unique_ptr<DaxSource>(new DaxSource());
  source->name_ = root->Attr("name", "dax-workflow");

  std::map<std::string, TaskId> id_by_job;
  std::set<std::string> produced;
  std::map<std::string, int64_t> consumed;  // path -> declared size
  TaskId next_id = 1;

  for (const XmlElement* job : root->Children("job")) {
    if (!job->HasAttr("id")) {
      return Status::ParseError("DAX <job> without id attribute");
    }
    TaskSpec task;
    task.id = next_id++;
    std::string job_id = job->Attr("id");
    if (id_by_job.count(job_id) > 0) {
      return Status::ParseError("duplicate DAX job id: " + job_id);
    }
    id_by_job[job_id] = task.id;
    task.signature = job->Attr("name");
    if (task.signature.empty()) {
      return Status::ParseError("DAX job " + job_id + " has no name");
    }
    task.tool = task.signature;
    const XmlElement* argument = job->FirstChild("argument");
    task.command = task.signature;
    if (argument != nullptr && !argument->text.empty()) {
      task.command += " " + std::string(StrTrim(argument->text));
    }
    int out_index = 0;
    for (const XmlElement* uses : job->Children("uses")) {
      std::string file = uses->Attr("file");
      if (file.empty()) file = uses->Attr("name");
      if (file.empty()) {
        return Status::ParseError("DAX <uses> without file in job " + job_id);
      }
      std::string path = file_prefix + file;
      std::string link = uses->Attr("link", "input");
      int64_t size = 0;
      if (uses->HasAttr("size")) {
        auto parsed = ParseInt64(uses->Attr("size"));
        if (!parsed.ok()) {
          return Status::ParseError("bad size attribute '" +
                                    uses->Attr("size") + "' in job " + job_id);
        }
        if (*parsed < 0) {
          return Status::ParseError("negative size attribute '" +
                                    uses->Attr("size") + "' in job " + job_id);
        }
        size = *parsed;
      }
      if (link == "input") {
        task.input_files.push_back(path);
        auto it = consumed.find(path);
        if (it == consumed.end() || it->second == 0) consumed[path] = size;
      } else if (link == "output") {
        OutputSpec out;
        out.param = StrFormat("out%d", out_index++);
        out.path = path;
        if (size > 0) out.size_bytes = size;
        task.outputs.push_back(std::move(out));
        produced.insert(path);
      } else {
        return Status::ParseError("DAX <uses link=\"" + link +
                                  "\"> not supported");
      }
    }
    source->tasks_.push_back(std::move(task));
  }

  // Validate explicit dependency edges against the file-derived ones.
  std::map<std::string, const TaskSpec*> producer_of;
  for (const TaskSpec& t : source->tasks_) {
    for (const OutputSpec& o : t.outputs) producer_of[o.path] = &t;
  }
  for (const XmlElement* child : root->Children("child")) {
    std::string child_ref = child->Attr("ref");
    auto cit = id_by_job.find(child_ref);
    if (cit == id_by_job.end()) {
      return Status::ParseError("DAX <child ref> to unknown job: " +
                                child_ref);
    }
    for (const XmlElement* parent : child->Children("parent")) {
      std::string parent_ref = parent->Attr("ref");
      if (id_by_job.find(parent_ref) == id_by_job.end()) {
        return Status::ParseError("DAX <parent ref> to unknown job: " +
                                  parent_ref);
      }
    }
  }

  // Workflow-level inputs and targets.
  for (const auto& [path, size] : consumed) {
    if (produced.find(path) == produced.end()) {
      source->required_inputs_.emplace_back(path, size);
    }
  }
  std::set<std::string> consumed_paths;
  for (const auto& [path, size] : consumed) consumed_paths.insert(path);
  for (const std::string& path : produced) {
    if (consumed_paths.find(path) == consumed_paths.end()) {
      source->targets_.push_back(path);
    }
  }
  if (source->tasks_.empty()) {
    return Status::ParseError("DAX workflow contains no jobs");
  }
  HIWAY_RETURN_IF_ERROR(ValidateWorkflowTasks(source->tasks_)
                            .WithContext("invalid DAX task graph"));
  return source;
}

}  // namespace hiway
