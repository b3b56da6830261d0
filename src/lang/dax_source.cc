#include "src/lang/dax_source.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/flat_hash.h"
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

  // Job ids are views into the document tree, which outlives this call's
  // bookkeeping.
  FlatHashMap<std::string_view, TaskId> id_by_job;
  // The declared size of each input use, in the order of the tasks'
  // input_files.
  std::vector<int64_t> input_sizes;
  TaskId next_id = 1;
  id_by_job.reserve(root->children.size());
  source->tasks_.reserve(root->children.size());

  for (const XmlElement& job : root->children) {
    if (job.name != "job") continue;
    if (!job.HasAttr("id")) {
      return Status::ParseError("DAX <job> without id attribute");
    }
    TaskSpec task;
    task.id = next_id++;
    std::string_view job_id = job.Attr("id");
    if (!id_by_job.emplace(job_id, task.id).second) {
      return Status::ParseError("duplicate DAX job id: " +
                                std::string(job_id));
    }
    task.signature = job.Attr("name");
    if (task.signature.empty()) {
      return Status::ParseError("DAX job " + std::string(job_id) +
                                " has no name");
    }
    task.tool = task.signature;
    const XmlElement* argument = job.FirstChild("argument");
    task.command = task.signature;
    if (argument != nullptr && !argument->text.empty()) {
      task.command += ' ';
      task.command += StrTrim(argument->text);
    }
    int out_index = 0;
    for (const XmlElement& uses : job.children) {
      if (uses.name != "uses") continue;
      std::string_view file = uses.Attr("file");
      if (file.empty()) file = uses.Attr("name");
      if (file.empty()) {
        return Status::ParseError("DAX <uses> without file in job " +
                                  std::string(job_id));
      }
      std::string path;
      path.reserve(file_prefix.size() + file.size());
      path.append(file_prefix).append(file);
      std::string_view link = uses.Attr("link", "input");
      int64_t size = 0;
      if (uses.HasAttr("size")) {
        std::string_view text = uses.Attr("size");
        auto parsed = ParseInt64(text);
        if (!parsed.ok()) {
          return Status::ParseError("bad size attribute '" +
                                    std::string(text) + "' in job " +
                                    std::string(job_id));
        }
        if (*parsed < 0) {
          return Status::ParseError("negative size attribute '" +
                                    std::string(text) + "' in job " +
                                    std::string(job_id));
        }
        size = *parsed;
      }
      if (link == "input") {
        task.input_files.push_back(std::move(path));
        input_sizes.push_back(size);
      } else if (link == "output") {
        OutputSpec out;
        out.param = "out" + std::to_string(out_index++);
        out.path = std::move(path);
        if (size > 0) out.size_bytes = size;
        task.outputs.push_back(std::move(out));
      } else {
        return Status::ParseError("DAX <uses link=\"" + std::string(link) +
                                  "\"> not supported");
      }
    }
    source->tasks_.push_back(std::move(task));
  }

  // <child>/<parent> refs are only checked to name declared jobs. The
  // edges follow from the files (TaskGraph), and the refs are not checked
  // against them.
  for (const XmlElement& child : root->children) {
    if (child.name != "child") continue;
    std::string_view child_ref = child.Attr("ref");
    if (id_by_job.find(child_ref) == id_by_job.end()) {
      return Status::ParseError("DAX <child ref> to unknown job: " +
                                std::string(child_ref));
    }
    for (const XmlElement& parent : child.children) {
      if (parent.name != "parent") continue;
      std::string_view parent_ref = parent.Attr("ref");
      if (id_by_job.find(parent_ref) == id_by_job.end()) {
        return Status::ParseError("DAX <parent ref> to unknown job: " +
                                  std::string(parent_ref));
      }
    }
  }

  // Workflow-level inputs (consumed, never produced, each with the first
  // non-zero size declared for it) and targets (produced, never consumed),
  // both in path order. The task list is complete, so views into its
  // paths stay valid.
  std::vector<std::pair<std::string_view, int64_t>> consumed;
  consumed.reserve(input_sizes.size());
  std::vector<std::string_view> produced;
  for (const TaskSpec& task : source->tasks_) {
    for (const std::string& path : task.input_files) {
      consumed.emplace_back(path, input_sizes[consumed.size()]);
    }
    for (const OutputSpec& out : task.outputs) produced.push_back(out.path);
  }
  std::stable_sort(consumed.begin(), consumed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(produced.begin(), produced.end());
  produced.erase(std::unique(produced.begin(), produced.end()),
                 produced.end());
  for (size_t i = 0; i < consumed.size();) {
    std::string_view path = consumed[i].first;
    int64_t size = 0;
    for (; i < consumed.size() && consumed[i].first == path; ++i) {
      if (size == 0) size = consumed[i].second;
    }
    if (!std::binary_search(produced.begin(), produced.end(), path)) {
      source->required_inputs_.emplace_back(path, size);
    }
  }
  for (std::string_view path : produced) {
    auto it = std::lower_bound(
        consumed.begin(), consumed.end(), path,
        [](const auto& entry, std::string_view p) { return entry.first < p; });
    if (it == consumed.end() || it->first != path) {
      source->targets_.emplace_back(path);
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
