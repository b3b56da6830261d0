#include "tests/oracles/cuneiform_oracle.h"

#include <algorithm>
#include <functional>

#include "src/common/strings.h"
#include "src/lang/cuneiform_parser.h"

namespace hiway {

using cuneiform::Expr;
using cuneiform::ExprPtr;
using cuneiform::FunDef;
using cuneiform::OutDecl;
using cuneiform::ParamDecl;
using cuneiform::Program;
using cuneiform::TaskDef;

CuneiformRefValue CuneiformRefValue::String(std::string s) {
  CuneiformRefValue v;
  v.kind = Kind::kString;
  v.str = std::move(s);
  return v;
}

CuneiformRefValue CuneiformRefValue::File(std::string path) {
  CuneiformRefValue v;
  v.kind = Kind::kFile;
  v.str = std::move(path);
  return v;
}

CuneiformRefValue CuneiformRefValue::List(
    std::vector<CuneiformRefValue> items) {
  CuneiformRefValue v;
  v.kind = Kind::kList;
  v.items = std::move(items);
  return v;
}

CuneiformRefValue CuneiformRefValue::Pending() {
  CuneiformRefValue v;
  v.kind = Kind::kPending;
  return v;
}

bool CuneiformRefValue::IsConcrete() const {
  if (kind == Kind::kPending) return false;
  if (kind == Kind::kList) {
    for (const CuneiformRefValue& item : items) {
      if (!item.IsConcrete()) return false;
    }
  }
  return true;
}

Result<std::unique_ptr<CuneiformOracle>> CuneiformOracle::Parse(
    std::string_view source_text, CuneiformOptions options) {
  HIWAY_ASSIGN_OR_RETURN(Program program,
                         cuneiform::ParseCuneiform(source_text));
  return std::unique_ptr<CuneiformOracle>(
      new CuneiformOracle(std::move(program), std::move(options)));
}

bool CuneiformOracle::Truthy(const CuneiformRefValue& v) {
  switch (v.kind) {
    case CuneiformRefValue::Kind::kString:
    case CuneiformRefValue::Kind::kFile:
      return !v.str.empty() && v.str != "false" && v.str != "0";
    case CuneiformRefValue::Kind::kList:
      return !v.items.empty();
    case CuneiformRefValue::Kind::kPending:
      return false;  // callers must check IsConcrete first
  }
  return false;
}

namespace {

/// Quotes a string payload for a memo key: only ' and \ are escaped, so
/// keys of strings without them are unchanged.
std::string Quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'' || c == '\\') out += '\\';
    out += c;
  }
  return out + "'";
}

}  // namespace

std::string CuneiformOracle::Serialize(const CuneiformRefValue& v) {
  switch (v.kind) {
    case CuneiformRefValue::Kind::kString:
      return "s" + Quote(v.str);
    case CuneiformRefValue::Kind::kFile:
      return "f" + Quote(v.str);
    case CuneiformRefValue::Kind::kList: {
      std::string out = "[";
      for (size_t i = 0; i < v.items.size(); ++i) {
        if (i > 0) out += ",";
        out += Serialize(v.items[i]);
      }
      return out + "]";
    }
    case CuneiformRefValue::Kind::kPending:
      return "<pending>";
  }
  return "?";
}

Result<std::vector<TaskSpec>> CuneiformOracle::Init() {
  std::vector<TaskSpec> discovered;
  HIWAY_RETURN_IF_ERROR(Sweep(&discovered));
  return discovered;
}

Result<std::vector<TaskSpec>> CuneiformOracle::OnTaskCompleted(
    const TaskResult& result) {
  auto key_it = key_by_task_.find(result.id);
  if (key_it == key_by_task_.end()) {
    return Status::InvalidArgument(
        StrFormat("completion for unknown task %lld",
                  static_cast<long long>(result.id)));
  }
  AppEntry& entry = memo_[key_it->second];
  entry.done = true;
  // Bind declared outputs to produced files / the stdout value.
  const TaskDef& def = program_.tasks.at(entry.spec.signature);
  std::map<std::string, std::string> produced;
  for (const OutputSpec& out : entry.spec.outputs) {
    produced[out.param] = out.path;
  }
  for (const OutDecl& out : def.outputs) {
    if (out.is_value) {
      entry.outputs[out.name] =
          CuneiformRefValue::String(result.stdout_value);
    } else {
      entry.outputs[out.name] = CuneiformRefValue::File(produced[out.name]);
    }
  }
  std::vector<TaskSpec> discovered;
  HIWAY_RETURN_IF_ERROR(Sweep(&discovered));
  return discovered;
}

std::vector<std::string> CuneiformOracle::Targets() const {
  std::vector<std::string> out;
  // Flatten file paths of resolved targets.
  std::function<void(const CuneiformRefValue&)> visit =
      [&](const CuneiformRefValue& v) {
        if (v.kind == CuneiformRefValue::Kind::kFile) out.push_back(v.str);
        if (v.kind == CuneiformRefValue::Kind::kList) {
          for (const CuneiformRefValue& item : v.items) visit(item);
        }
      };
  for (const CuneiformRefValue& v : target_values_) visit(v);
  return out;
}

Status CuneiformOracle::Sweep(std::vector<TaskSpec>* discovered) {
  Env env;
  // Top-level lets evaluate in order; later bindings may shadow earlier.
  for (const auto& [name, expr] : program_.lets) {
    HIWAY_ASSIGN_OR_RETURN(CuneiformRefValue v, Eval(expr, env, 0, discovered));
    env[name] = std::move(v);
  }
  target_values_.clear();
  bool all_concrete = true;
  for (const ExprPtr& target : program_.targets) {
    HIWAY_ASSIGN_OR_RETURN(CuneiformRefValue v,
                           Eval(target, env, 0, discovered));
    all_concrete = all_concrete && v.IsConcrete();
    target_values_.push_back(std::move(v));
  }
  done_ = all_concrete;
  return Status::OK();
}

Result<CuneiformRefValue> CuneiformOracle::Eval(
    const ExprPtr& expr, const Env& env, int depth,
    std::vector<TaskSpec>* discovered) {
  if (depth > options_.max_eval_depth) {
    return Status::RuntimeError(StrFormat(
        "evaluation depth limit (%d) exceeded at line %d — unbounded "
        "static recursion?",
        options_.max_eval_depth, expr->line));
  }
  switch (expr->kind) {
    case Expr::Kind::kString:
      return CuneiformRefValue::String(expr->str);
    case Expr::Kind::kVar: {
      auto it = env.find(expr->str);
      if (it == env.end()) {
        return Status::InvalidArgument(StrFormat(
            "undefined variable '%s' at line %d", expr->str.c_str(),
            expr->line));
      }
      return it->second;
    }
    case Expr::Kind::kList: {
      std::vector<CuneiformRefValue> items;
      items.reserve(expr->items.size());
      for (const ExprPtr& item : expr->items) {
        HIWAY_ASSIGN_OR_RETURN(CuneiformRefValue v,
                               Eval(item, env, depth + 1, discovered));
        items.push_back(std::move(v));
      }
      return CuneiformRefValue::List(std::move(items));
    }
    case Expr::Kind::kConcat: {
      std::string out;
      for (const ExprPtr& part : expr->items) {
        HIWAY_ASSIGN_OR_RETURN(CuneiformRefValue v,
                               Eval(part, env, depth + 1, discovered));
        if (v.kind == CuneiformRefValue::Kind::kPending) {
          return CuneiformRefValue::Pending();
        }
        if (v.kind == CuneiformRefValue::Kind::kList) {
          return Status::InvalidArgument(StrFormat(
              "cannot concatenate a list at line %d", expr->line));
        }
        out += v.str;
      }
      return CuneiformRefValue::String(std::move(out));
    }
    case Expr::Kind::kIf: {
      HIWAY_ASSIGN_OR_RETURN(CuneiformRefValue cond,
                             Eval(expr->cond, env, depth + 1, discovered));
      if (!cond.IsConcrete()) {
        // Data-dependent control flow: suspend both branches until the
        // condition's task(s) finish. This is what makes the language
        // iterative without unbounded task graphs.
        return CuneiformRefValue::Pending();
      }
      return Eval(Truthy(cond) ? expr->then_branch : expr->else_branch, env,
                  depth + 1, discovered);
    }
    case Expr::Kind::kApply:
      return EvalApply(*expr, env, depth, discovered);
  }
  return Status::RuntimeError("unreachable expression kind");
}

Result<CuneiformRefValue> CuneiformOracle::EvalApply(
    const Expr& expr, const Env& env, int depth,
    std::vector<TaskSpec>* discovered) {
  auto task_it = program_.tasks.find(expr.str);
  if (task_it != program_.tasks.end()) {
    // Task application: named arguments only.
    std::map<std::string, CuneiformRefValue> args;
    for (const auto& [name, value_expr] : expr.args) {
      if (name.empty()) {
        return Status::InvalidArgument(StrFormat(
            "task '%s' requires named arguments (line %d)",
            expr.str.c_str(), expr.line));
      }
      HIWAY_ASSIGN_OR_RETURN(CuneiformRefValue v,
                             Eval(value_expr, env, depth + 1, discovered));
      args[name] = std::move(v);
    }
    return ApplyTask(task_it->second, args, discovered);
  }
  auto fun_it = program_.funs.find(expr.str);
  if (fun_it != program_.funs.end()) {
    const FunDef& def = fun_it->second;
    if (expr.args.size() != def.params.size()) {
      return Status::InvalidArgument(StrFormat(
          "function '%s' expects %zu arguments, got %zu (line %d)",
          def.name.c_str(), def.params.size(), expr.args.size(), expr.line));
    }
    Env local;  // defuns close over nothing but their parameters
    for (size_t i = 0; i < def.params.size(); ++i) {
      if (!expr.args[i].first.empty() &&
          expr.args[i].first != def.params[i]) {
        return Status::InvalidArgument(StrFormat(
            "function '%s' argument %zu is named '%s', expected '%s'",
            def.name.c_str(), i, expr.args[i].first.c_str(),
            def.params[i].c_str()));
      }
      HIWAY_ASSIGN_OR_RETURN(
          CuneiformRefValue v,
          Eval(expr.args[i].second, env, depth + 1, discovered));
      local[def.params[i]] = std::move(v);
    }
    return Eval(def.body, local, depth + 1, discovered);
  }
  return Status::InvalidArgument(StrFormat(
      "'%s' is neither a task nor a function (line %d)", expr.str.c_str(),
      expr.line));
}

Result<CuneiformRefValue> CuneiformOracle::ApplyTask(
    const TaskDef& def, const std::map<std::string, CuneiformRefValue>& args,
    std::vector<TaskSpec>* discovered) {
  // Check arity.
  for (const ParamDecl& param : def.inputs) {
    if (args.find(param.name) == args.end()) {
      return Status::InvalidArgument(StrFormat(
          "task '%s' missing argument '%s'", def.name.c_str(),
          param.name.c_str()));
    }
  }
  if (args.size() != def.inputs.size()) {
    return Status::InvalidArgument(StrFormat(
        "task '%s' called with %zu arguments, expects %zu",
        def.name.c_str(), args.size(), def.inputs.size()));
  }

  // Implicit map/cross: each *single* parameter bound to a list expands
  // the application over the cross product of such lists (Cuneiform's
  // second-order behaviour). Aggregating ([x]) parameters consume their
  // whole list in one invocation.
  std::vector<const ParamDecl*> mapped;
  for (const ParamDecl& param : def.inputs) {
    const CuneiformRefValue& v = args.at(param.name);
    if (!param.is_list && v.kind == CuneiformRefValue::Kind::kList) {
      mapped.push_back(&param);
    }
  }

  if (mapped.empty()) {
    return InvokeCombination(def, args, {}, discovered);
  }

  // Mapping over an empty list yields an empty list (no invocations).
  for (const ParamDecl* param : mapped) {
    if (args.at(param->name).items.empty()) {
      return CuneiformRefValue::List({});
    }
  }

  // Enumerate the cross product (deterministic order). Per-combination
  // bindings are pointer overrides into the argument lists — copying the
  // lists here would make large fan-outs quadratic.
  std::vector<CuneiformRefValue> results;
  std::vector<size_t> index(mapped.size(), 0);
  std::map<std::string, const CuneiformRefValue*> overrides;
  while (true) {
    bool element_pending = false;
    for (size_t i = 0; i < mapped.size(); ++i) {
      const CuneiformRefValue& list = args.at(mapped[i]->name);
      const CuneiformRefValue& element = list.items[index[i]];
      if (!element.IsConcrete()) element_pending = true;
      overrides[mapped[i]->name] = &element;
    }
    if (element_pending) {
      // This combination's inputs are not known yet; it stays pending but
      // sibling combinations still proceed (eager per-element evaluation).
      results.push_back(CuneiformRefValue::Pending());
    } else {
      HIWAY_ASSIGN_OR_RETURN(
          CuneiformRefValue v,
          InvokeCombination(def, args, overrides, discovered));
      results.push_back(std::move(v));
    }
    // Advance the odometer.
    size_t pos = mapped.size();
    while (pos > 0) {
      --pos;
      if (++index[pos] < args.at(mapped[pos]->name).items.size()) break;
      index[pos] = 0;
      if (pos == 0) return CuneiformRefValue::List(std::move(results));
    }
  }
}

Result<CuneiformRefValue> CuneiformOracle::InvokeCombination(
    const TaskDef& def, const std::map<std::string, CuneiformRefValue>& args,
    const std::map<std::string, const CuneiformRefValue*>& overrides,
    std::vector<TaskSpec>* discovered) {
  auto arg = [&](const std::string& name) -> const CuneiformRefValue& {
    auto it = overrides.find(name);
    return it != overrides.end() ? *it->second : args.at(name);
  };
  // Pending arguments suspend this combination entirely.
  for (const ParamDecl& param : def.inputs) {
    if (!arg(param.name).IsConcrete()) {
      return CuneiformRefValue::Pending();
    }
  }
  // Validate argument shapes.
  for (const ParamDecl& param : def.inputs) {
    const CuneiformRefValue& v = arg(param.name);
    if (param.is_list) {
      if (v.kind != CuneiformRefValue::Kind::kList) {
        return Status::InvalidArgument(StrFormat(
            "task '%s' parameter [%s] requires a list", def.name.c_str(),
            param.name.c_str()));
      }
    } else if (v.kind == CuneiformRefValue::Kind::kList) {
      return Status::RuntimeError("unexpanded list argument");
    }
  }

  // Memo key: the concrete application.
  std::string key = def.name + "(";
  for (const ParamDecl& param : def.inputs) {
    key += param.name + "=" + Serialize(arg(param.name)) + ";";
  }
  key += ")";

  auto result_value = [&](AppEntry& entry) -> CuneiformRefValue {
    if (!entry.done) return CuneiformRefValue::Pending();
    if (def.outputs.size() == 1) {
      return entry.outputs.at(def.outputs[0].name);
    }
    std::vector<CuneiformRefValue> tuple;
    for (const OutDecl& out : def.outputs) {
      tuple.push_back(entry.outputs.at(out.name));
    }
    return CuneiformRefValue::List(std::move(tuple));
  };

  auto it = memo_.find(key);
  if (it != memo_.end()) {
    return result_value(it->second);
  }

  // New concrete application: synthesise a TaskSpec.
  AppEntry entry;
  entry.task_id = next_task_id_++;
  TaskSpec spec;
  spec.id = entry.task_id;
  spec.signature = def.name;
  spec.tool = def.tool;
  for (const ParamDecl& param : def.inputs) {
    const CuneiformRefValue& v = arg(param.name);
    if (param.is_list) {
      int files = 0;
      for (const CuneiformRefValue& item : v.items) {
        if (item.kind == CuneiformRefValue::Kind::kFile) {
          spec.input_files.push_back(item.str);
          ++files;
        } else {
          spec.params[param.name + "." +
                      StrFormat("%d", files)] = item.str;
        }
      }
      spec.params[param.name + ".count"] =
          StrFormat("%zu", v.items.size());
    } else if (param.is_string) {
      spec.params[param.name] = v.str;
    } else {
      // File parameter: string literals are path literals.
      spec.input_files.push_back(v.str);
    }
  }
  for (const auto& [prop, value] : def.props) {
    if (prop == "cpu") {
      auto parsed = ParseInt64(value);
      if (parsed.ok()) spec.vcores = static_cast<int>(*parsed);
    } else if (prop == "mem") {
      auto parsed = ParseDouble(value);
      if (parsed.ok()) spec.memory_mb = *parsed;
    } else {
      spec.params[prop] = value;
    }
  }
  for (const OutDecl& out : def.outputs) {
    OutputSpec o;
    o.param = out.name;
    o.is_value = out.is_value;
    if (!out.is_value) {
      // Content-addressed scratch path: the memo key canonically encodes
      // the definition and its concrete arguments, so the same
      // application writes to the same place in every run, regardless of
      // completion order. Cross-run result-cache keys depend on this
      // (an order-dependent invocation counter would make every repeat
      // submission a miss); re-executions after an input change land in
      // a fresh directory instead of clobbering the previous cone.
      o.path = StrFormat("%s/%s-%016llx/%s.dat", options_.output_dir.c_str(),
                         def.name.c_str(),
                         static_cast<unsigned long long>(Fnv1a64(key)),
                         out.name.c_str());
    }
    spec.outputs.push_back(std::move(o));
  }
  spec.command = key;
  entry.spec = spec;
  memo_.emplace(key, std::move(entry));
  key_by_task_.emplace(spec.id, key);
  discovered->push_back(std::move(spec));
  return CuneiformRefValue::Pending();
}

}  // namespace hiway
