#include "src/lang/cuneiform.h"

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

CuneiformValue::CuneiformValue() {
  static const auto* empty = new std::shared_ptr<const Rep>(
      std::make_shared<const Rep>());
  rep_ = *empty;
}

CuneiformValue CuneiformValue::String(std::string s) {
  Rep rep;
  rep.str = std::move(s);
  return CuneiformValue(std::make_shared<const Rep>(std::move(rep)));
}

CuneiformValue CuneiformValue::File(std::string path) {
  Rep rep;
  rep.kind = Kind::kFile;
  rep.str = std::move(path);
  return CuneiformValue(std::make_shared<const Rep>(std::move(rep)));
}

CuneiformValue::Chunk::Chunk(std::vector<CuneiformValue> chunk_items)
    : items(std::move(chunk_items)),
      concrete(std::all_of(
          items.begin(), items.end(),
          [](const CuneiformValue& item) { return item.IsConcrete(); })) {}

CuneiformValue CuneiformValue::FromChunks(
    std::vector<std::shared_ptr<const Chunk>> chunks, size_t size) {
  Rep rep;
  rep.kind = Kind::kList;
  rep.concrete = std::all_of(
      chunks.begin(), chunks.end(),
      [](const std::shared_ptr<const Chunk>& c) { return c->concrete; });
  rep.size = size;
  rep.chunks = std::move(chunks);
  return CuneiformValue(std::make_shared<const Rep>(std::move(rep)));
}

CuneiformValue CuneiformValue::List(std::vector<CuneiformValue> items) {
  std::vector<std::shared_ptr<const Chunk>> chunks;
  for (size_t begin = 0; begin < items.size(); begin += kChunk) {
    auto first = std::make_move_iterator(items.begin() + begin);
    auto last = std::make_move_iterator(
        items.begin() + std::min(items.size(), begin + kChunk));
    chunks.push_back(std::make_shared<const Chunk>(
        std::vector<CuneiformValue>(first, last)));
  }
  return FromChunks(std::move(chunks), items.size());
}

CuneiformValue CuneiformValue::WithItems(
    const std::vector<std::pair<size_t, CuneiformValue>>& changes) const {
  std::vector<std::shared_ptr<const Chunk>> chunks = rep_->chunks;
  for (size_t i = 0; i < changes.size();) {
    const size_t c = changes[i].first / kChunk;
    std::vector<CuneiformValue> items = chunks[c]->items;
    for (; i < changes.size() && changes[i].first / kChunk == c; ++i) {
      items[changes[i].first % kChunk] = changes[i].second;
    }
    chunks[c] = std::make_shared<const Chunk>(std::move(items));
  }
  return FromChunks(std::move(chunks), rep_->size);
}

void CuneiformValue::DiffItems(const CuneiformValue& old,
                               std::vector<size_t>* out) const {
  for (size_t c = 0; c < rep_->chunks.size(); ++c) {
    const Chunk& now = *rep_->chunks[c];
    const Chunk& was = *old.rep_->chunks[c];
    if (&now == &was) continue;
    for (size_t i = 0; i < now.items.size(); ++i) {
      if (!now.items[i].SameAs(was.items[i])) out->push_back(c * kChunk + i);
    }
  }
}

CuneiformValue CuneiformValue::Pending(TaskId task) {
  auto make = [](TaskId waits_on) {
    Rep rep;
    rep.kind = Kind::kPending;
    rep.concrete = false;
    rep.waits_on = waits_on;
    return std::make_shared<const Rep>(std::move(rep));
  };
  if (task != kInvalidTask) return CuneiformValue(make(task));
  static const auto* on_inputs =
      new std::shared_ptr<const Rep>(make(kInvalidTask));
  return CuneiformValue(*on_inputs);
}

Result<std::unique_ptr<CuneiformSource>> CuneiformSource::Parse(
    std::string_view source_text, CuneiformOptions options) {
  HIWAY_ASSIGN_OR_RETURN(Program program,
                         cuneiform::ParseCuneiform(source_text));
  return std::unique_ptr<CuneiformSource>(
      new CuneiformSource(std::move(program), std::move(options)));
}

bool CuneiformSource::Truthy(const CuneiformValue& v) {
  switch (v.kind()) {
    case CuneiformValue::Kind::kString:
    case CuneiformValue::Kind::kFile:
      return !v.str().empty() && v.str() != "false" && v.str() != "0";
    case CuneiformValue::Kind::kList:
      return v.size() > 0;
    case CuneiformValue::Kind::kPending:
      return false;  // callers must check IsConcrete first
  }
  return false;
}

namespace {

/// Quotes a string payload for a memo key. Escaping ' and \ keeps keys
/// injective; strings without either character need no escape, so their
/// keys (and the output paths hashed from them) read as plain quotes.
std::string Quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'' || c == '\\') out += '\\';
    out += c;
  }
  return out + "'";
}

}  // namespace

std::string CuneiformSource::Serialize(const CuneiformValue& v) {
  switch (v.kind()) {
    case CuneiformValue::Kind::kString:
      return "s" + Quote(v.str());
    case CuneiformValue::Kind::kFile:
      return "f" + Quote(v.str());
    case CuneiformValue::Kind::kList: {
      std::string out = "[";
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out += ",";
        out += Serialize(v.item(i));
      }
      return out + "]";
    }
    case CuneiformValue::Kind::kPending:
      return "<pending>";
  }
  return "?";
}

Result<std::vector<TaskSpec>> CuneiformSource::Init() {
  std::vector<TaskSpec> discovered;
  HIWAY_RETURN_IF_ERROR(Sweep(&discovered));
  return discovered;
}

Result<std::vector<TaskSpec>> CuneiformSource::OnTaskCompleted(
    const TaskResult& result) {
  if (result.id < 1 || result.id >= next_task_id_) {
    return Status::InvalidArgument(
        StrFormat("completion for unknown task %lld",
                  static_cast<long long>(result.id)));
  }
  AppEntry& entry = *entry_by_task_[static_cast<size_t>(result.id - 1)];
  // A repeated completion may bind different outputs, which every cached
  // value derived from the first one would miss.
  if (entry.value.IsConcrete()) {
    DropCaches();
  } else {
    --outstanding_;
  }
  // Bind declared outputs to produced files / the stdout value.
  const TaskDef& def = program_.tasks.at(entry.spec.signature);
  std::map<std::string, std::string> produced;
  for (const OutputSpec& out : entry.spec.outputs) {
    produced[out.param] = out.path;
  }
  std::vector<CuneiformValue> outputs;
  for (const OutDecl& out : def.outputs) {
    outputs.push_back(out.is_value
                          ? CuneiformValue::String(result.stdout_value)
                          : CuneiformValue::File(produced[out.name]));
  }
  entry.value = outputs.size() == 1
                    ? std::move(outputs[0])
                    : CuneiformValue::List(std::move(outputs));
  for (const Waiter& waiter : entry.waiters) {
    Binding& binding = bindings_[waiter.binding];
    binding.dirty = true;
    auto site = binding.sites.find(waiter.site);
    if (site != binding.sites.end()) {
      site->second.finished.push_back(waiter.combination);
    }
  }
  entry.waiters = {};
  std::vector<TaskSpec> discovered;
  HIWAY_RETURN_IF_ERROR(Sweep(&discovered));
  return discovered;
}

std::vector<std::string> CuneiformSource::Targets() const {
  std::vector<std::string> out;
  // Flatten file paths of resolved targets.
  std::function<void(const CuneiformValue&)> visit =
      [&](const CuneiformValue& v) {
        if (v.kind() == CuneiformValue::Kind::kFile) out.push_back(v.str());
        if (v.kind() == CuneiformValue::Kind::kList) {
          for (size_t i = 0; i < v.size(); ++i) visit(v.item(i));
        }
      };
  for (const CuneiformValue& v : target_values_) visit(v);
  return out;
}

Status CuneiformSource::Sweep(std::vector<TaskSpec>* discovered) {
  discovered_ = discovered;
  Env env;
  size_t index = 0;
  // Top-level lets evaluate in order; later bindings may shadow earlier.
  for (const auto& [name, expr] : program_.lets) {
    HIWAY_ASSIGN_OR_RETURN(CuneiformValue v, EvalBinding(index++, expr, env));
    env[name] = std::move(v);
  }
  target_values_.clear();
  bool all_concrete = true;
  for (const ExprPtr& target : program_.targets) {
    HIWAY_ASSIGN_OR_RETURN(CuneiformValue v,
                           EvalBinding(index++, target, env));
    all_concrete = all_concrete && v.IsConcrete();
    target_values_.push_back(std::move(v));
  }
  done_ = all_concrete;
  // Nothing can complete any more: the caches would never be read again.
  if (done_ && outstanding_ == 0) DropCaches();
  return Status::OK();
}

Result<CuneiformValue> CuneiformSource::EvalBinding(size_t index,
                                                    const ExprPtr& expr,
                                                    const Env& env) {
  Binding& binding = bindings_[index];
  if (binding.is_final) return binding.value;
  // Evaluation is a function of the variables read and of the state of
  // the applications met. If none of them changed, it would only meet the
  // same memo entries again and return the same value.
  if (!binding.dirty &&
      std::all_of(binding.reads.begin(), binding.reads.end(),
                  [&](const auto& read) {
                    auto it = env.find(read.first);
                    return it != env.end() && it->second.SameAs(read.second);
                  })) {
    return binding.value;
  }
  binding.dirty = true;
  binding.reads.clear();
  at_.binding = index;
  saw_pending_ = false;
  HIWAY_ASSIGN_OR_RETURN(CuneiformValue v, Eval(expr, env, 0, true));
  binding.value = std::move(v);
  binding.dirty = false;
  if (!saw_pending_) {
    binding.is_final = true;
    binding.reads.clear();
    binding.sites.clear();
  }
  return binding.value;
}

void CuneiformSource::DropCaches() {
  for (Binding& binding : bindings_) binding = Binding{};
}

Result<CuneiformValue> CuneiformSource::Eval(const ExprPtr& expr,
                                             const Env& env, int depth,
                                             bool top) {
  if (depth > options_.max_eval_depth) {
    return Status::RuntimeError(StrFormat(
        "evaluation depth limit (%d) exceeded at line %d — unbounded "
        "static recursion?",
        options_.max_eval_depth, expr->line));
  }
  switch (expr->kind) {
    case Expr::Kind::kString:
      return CuneiformValue::String(expr->str);
    case Expr::Kind::kVar: {
      auto it = env.find(expr->str);
      if (it == env.end()) {
        return Status::InvalidArgument(StrFormat(
            "undefined variable '%s' at line %d", expr->str.c_str(),
            expr->line));
      }
      if (!it->second.IsConcrete()) saw_pending_ = true;
      if (top) {
        auto& reads = bindings_[at_.binding].reads;
        if (std::none_of(reads.begin(), reads.end(), [&](const auto& read) {
              return read.first == expr->str;
            })) {
          reads.emplace_back(expr->str, it->second);
        }
      }
      return it->second;
    }
    case Expr::Kind::kList: {
      std::vector<CuneiformValue> items;
      items.reserve(expr->items.size());
      for (const ExprPtr& item : expr->items) {
        HIWAY_ASSIGN_OR_RETURN(CuneiformValue v,
                               Eval(item, env, depth + 1, top));
        items.push_back(std::move(v));
      }
      return CuneiformValue::List(std::move(items));
    }
    case Expr::Kind::kConcat: {
      std::string out;
      for (const ExprPtr& part : expr->items) {
        HIWAY_ASSIGN_OR_RETURN(CuneiformValue v,
                               Eval(part, env, depth + 1, top));
        if (v.kind() == CuneiformValue::Kind::kPending) {
          return CuneiformValue::Pending();
        }
        if (v.kind() == CuneiformValue::Kind::kList) {
          return Status::InvalidArgument(StrFormat(
              "cannot concatenate a list at line %d", expr->line));
        }
        out += v.str();
      }
      return CuneiformValue::String(std::move(out));
    }
    case Expr::Kind::kIf: {
      HIWAY_ASSIGN_OR_RETURN(CuneiformValue cond,
                             Eval(expr->cond, env, depth + 1, top));
      if (!cond.IsConcrete()) {
        // Data-dependent control flow: suspend both branches until the
        // condition's task(s) finish. This is what makes the language
        // iterative without unbounded task graphs.
        return CuneiformValue::Pending();
      }
      return Eval(Truthy(cond) ? expr->then_branch : expr->else_branch, env,
                  depth + 1, top);
    }
    case Expr::Kind::kApply:
      return EvalApply(*expr, env, depth, top);
  }
  return Status::RuntimeError("unreachable expression kind");
}

Result<CuneiformValue> CuneiformSource::EvalApply(const Expr& expr,
                                                  const Env& env, int depth,
                                                  bool top) {
  auto task_it = program_.tasks.find(expr.str);
  if (task_it != program_.tasks.end()) {
    // Task application: named arguments only.
    const TaskDef& def = task_it->second;
    std::map<std::string, CuneiformValue> named;
    for (const auto& [name, value_expr] : expr.args) {
      if (name.empty()) {
        return Status::InvalidArgument(StrFormat(
            "task '%s' requires named arguments (line %d)",
            expr.str.c_str(), expr.line));
      }
      HIWAY_ASSIGN_OR_RETURN(CuneiformValue v,
                             Eval(value_expr, env, depth + 1, top));
      named[name] = std::move(v);
    }
    // Check arity.
    std::vector<CuneiformValue> args;
    for (const ParamDecl& param : def.inputs) {
      auto it = named.find(param.name);
      if (it == named.end()) {
        return Status::InvalidArgument(StrFormat(
            "task '%s' missing argument '%s'", def.name.c_str(),
            param.name.c_str()));
      }
      args.push_back(it->second);
    }
    if (named.size() != def.inputs.size()) {
      return Status::InvalidArgument(StrFormat(
          "task '%s' called with %zu arguments, expects %zu",
          def.name.c_str(), named.size(), def.inputs.size()));
    }
    // Each top-level application node is evaluated at most once per
    // sweep, so it can keep the last sweep's results.
    return ApplyTask(def, args, top ? &expr : nullptr);
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
          CuneiformValue v,
          Eval(expr.args[i].second, env, depth + 1, top));
      local[def.params[i]] = std::move(v);
    }
    return Eval(def.body, local, depth + 1, false);
  }
  return Status::InvalidArgument(StrFormat(
      "'%s' is neither a task nor a function (line %d)", expr.str.c_str(),
      expr.line));
}

Result<CuneiformValue> CuneiformSource::ApplyTask(
    const TaskDef& def, const std::vector<CuneiformValue>& args,
    const Expr* at) {
  // Implicit map/cross: each *single* parameter bound to a list expands
  // the application over the cross product of such lists (Cuneiform's
  // second-order behaviour). Aggregating ([x]) parameters consume their
  // whole list in one invocation.
  std::vector<size_t> mapped;
  for (size_t p = 0; p < def.inputs.size(); ++p) {
    if (!def.inputs[p].is_list &&
        args[p].kind() == CuneiformValue::Kind::kList) {
      // Mapping over an empty list yields an empty list (no invocations).
      if (args[p].size() == 0) return CuneiformValue::List({});
      mapped.push_back(p);
    }
  }
  // Combinations are numbered in row-major (deterministic) order.
  std::vector<size_t> stride(mapped.size());
  size_t combinations = 1;
  for (size_t d = mapped.size(); d-- > 0;) {
    stride[d] = combinations;
    combinations *= args[mapped[d]].size();
  }

  // Per-combination bindings are pointers into the argument lists:
  // copying the lists here would make large fan-outs quadratic.
  std::vector<const CuneiformValue*> combo;
  for (const CuneiformValue& arg : args) combo.push_back(&arg);
  at_.site = at;
  auto evaluate = [&](size_t c) -> Result<CuneiformValue> {
    bool element_pending = false;
    for (size_t d = 0; d < mapped.size(); ++d) {
      const CuneiformValue& list = args[mapped[d]];
      const CuneiformValue& element = list.item(c / stride[d] % list.size());
      element_pending = element_pending || !element.IsConcrete();
      combo[mapped[d]] = &element;
    }
    // This combination's inputs are not known yet; it stays pending but
    // sibling combinations still proceed (eager per-element evaluation).
    if (element_pending) return CuneiformValue::Pending();
    at_.combination = c;
    return InvokeCombination(def, combo);
  };

  // The site's last results stand for this sweep's, except where an
  // application completed since or a mapped list's element changed, as
  // long as every other argument is the very same value and every mapped
  // list has the same length. Anything else would only meet the same memo
  // entries again.
  Site* site = at != nullptr ? &bindings_[at_.binding].sites[at] : nullptr;
  bool cached = site != nullptr && site->evaluated &&
                site->args.size() == args.size();
  std::vector<size_t> stale;
  for (size_t p = 0, d = 0; cached && p < args.size(); ++p) {
    const CuneiformValue& old = site->args[p];
    if (d < mapped.size() && mapped[d] == p) {
      const size_t n = args[p].size();
      cached = old.kind() == CuneiformValue::Kind::kList && old.size() == n;
      if (!cached || old.SameAs(args[p])) continue;
      std::vector<size_t> changed;
      args[p].DiffItems(old, &changed);
      // Every combination with one of these elements in dimension d.
      for (size_t outer = 0; outer < combinations; outer += n * stride[d]) {
        for (size_t e : changed) {
          for (size_t inner = 0; inner < stride[d]; ++inner) {
            stale.push_back(outer + e * stride[d] + inner);
          }
        }
      }
      ++d;
    } else {
      cached = old.SameAs(args[p]);
    }
  }

  CuneiformValue value;
  if (!cached) {
    std::vector<CuneiformValue> results;
    results.reserve(combinations);
    for (size_t c = 0; c < combinations; ++c) {
      HIWAY_ASSIGN_OR_RETURN(CuneiformValue result, evaluate(c));
      results.push_back(std::move(result));
    }
    value = mapped.empty() ? std::move(results[0])
                           : CuneiformValue::List(std::move(results));
  } else {
    for (size_t c : site->finished) {
      if (c < combinations) stale.push_back(c);
    }
    std::sort(stale.begin(), stale.end());
    stale.erase(std::unique(stale.begin(), stale.end()), stale.end());
    std::vector<std::pair<size_t, CuneiformValue>> changes;
    for (size_t c : stale) {
      HIWAY_ASSIGN_OR_RETURN(CuneiformValue result, evaluate(c));
      if (!result.SameAs(mapped.empty() ? site->value
                                        : site->value.item(c))) {
        changes.emplace_back(c, std::move(result));
      }
    }
    if (changes.empty()) {
      value = site->value;
    } else if (mapped.empty()) {
      value = std::move(changes[0].second);
    } else {
      value = site->value.WithItems(changes);
    }
  }
  if (!value.IsConcrete()) saw_pending_ = true;
  if (site != nullptr) {
    site->evaluated = true;
    site->args = args;
    site->value = value;
    site->finished.clear();
  }
  return value;
}

CuneiformValue CuneiformSource::Lookup(AppEntry& entry) {
  if (!entry.value.IsConcrete() &&
      (entry.waiters.empty() || !(entry.waiters.back() == at_))) {
    entry.waiters.push_back(at_);
  }
  return entry.value;
}

Result<CuneiformValue> CuneiformSource::InvokeCombination(
    const TaskDef& def, const std::vector<const CuneiformValue*>& combo) {
  // Pending arguments suspend this combination entirely.
  for (const CuneiformValue* v : combo) {
    if (!v->IsConcrete()) return CuneiformValue::Pending();
  }
  // Validate argument shapes.
  for (size_t p = 0; p < def.inputs.size(); ++p) {
    const ParamDecl& param = def.inputs[p];
    const CuneiformValue& v = *combo[p];
    if (param.is_list) {
      if (v.kind() != CuneiformValue::Kind::kList) {
        return Status::InvalidArgument(StrFormat(
            "task '%s' parameter [%s] requires a list", def.name.c_str(),
            param.name.c_str()));
      }
    } else if (v.kind() == CuneiformValue::Kind::kList) {
      return Status::RuntimeError("unexpanded list argument");
    }
  }

  // Memo key: the concrete application.
  std::string key = def.name + "(";
  for (size_t p = 0; p < def.inputs.size(); ++p) {
    key += def.inputs[p].name + "=" + Serialize(*combo[p]) + ";";
  }
  key += ")";

  auto it = memo_.find(key);
  if (it != memo_.end()) return Lookup(it->second);

  // New concrete application: synthesise a TaskSpec.
  AppEntry entry;
  entry.task_id = next_task_id_++;
  entry.value = CuneiformValue::Pending(entry.task_id);
  TaskSpec spec;
  spec.id = entry.task_id;
  spec.signature = def.name;
  spec.tool = def.tool;
  for (size_t p = 0; p < def.inputs.size(); ++p) {
    const ParamDecl& param = def.inputs[p];
    const CuneiformValue& v = *combo[p];
    if (param.is_list) {
      int files = 0;
      for (size_t i = 0; i < v.size(); ++i) {
        const CuneiformValue& item = v.item(i);
        if (item.kind() == CuneiformValue::Kind::kFile) {
          spec.input_files.push_back(item.str());
          ++files;
        } else {
          spec.params[param.name + "." +
                      StrFormat("%d", files)] = item.str();
        }
      }
      spec.params[param.name + ".count"] = StrFormat("%zu", v.size());
    } else if (param.is_string) {
      spec.params[param.name] = v.str();
    } else {
      // File parameter: string literals are path literals.
      spec.input_files.push_back(v.str());
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
  AppEntry& stored = memo_.emplace(std::move(key), std::move(entry))
                         .first->second;
  entry_by_task_.push_back(&stored);
  ++outstanding_;
  discovered_->push_back(std::move(spec));
  return Lookup(stored);
}

}  // namespace hiway
