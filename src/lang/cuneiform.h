// The Cuneiform-lite front-end: an iterative WorkflowSource.
//
// Evaluation model (Sec. 3.3 of the paper): the interpreter reduces the
// program as far as its data allows. Each concrete black-box application
// becomes a task; its results are unknown until the driver runs it, so the
// application's value is *pending*. After every task completion the
// program is reduced again (memoised per concrete application, so nothing
// is re-submitted), which naturally supports data-dependent conditionals,
// unbounded loops, and recursion: an `if` whose condition is pending
// suspends both branches, and resolving it may discover entirely new tasks.
//
// The re-reduction is incremental but exact. Top-level bindings (`let`s
// and `target`s) whose value can no longer change are *final* and never
// re-evaluated; the others are re-evaluated only when a variable they read
// now holds a different value or an application they waited on finished.
// A top-level task application keeps its last arguments and
// per-combination results and re-invokes only the combinations whose
// arguments changed or whose application finished. Everything skipped
// would only have hit the memo again, so tasks are discovered in the same
// order, with the same ids, commands and output paths, as a full re-sweep
// from the root (tests/oracles/cuneiform_oracle.h; docs/cuneiform-lite.md,
// "Evaluation model").

#ifndef HIWAY_LANG_CUNEIFORM_H_
#define HIWAY_LANG_CUNEIFORM_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/lang/cuneiform_ast.h"
#include "src/lang/workflow.h"

namespace hiway {

/// Evaluation value: a string, a file, a list, or a pending task output.
/// An immutable shared handle: a copy costs a reference count, not a deep
/// copy, and two handles on one representation are equal by construction.
/// Lists are persistent: items live in fixed-size chunks, and a list
/// derived with WithItems() shares every chunk it did not change.
class CuneiformValue {
 public:
  enum class Kind { kString, kFile, kList, kPending };

  /// The empty string.
  CuneiformValue();

  static CuneiformValue String(std::string s);
  static CuneiformValue File(std::string path);
  static CuneiformValue List(std::vector<CuneiformValue> items);
  /// A value that waits on application `task`, or, for kInvalidTask, on
  /// its own pending inputs (an argument or a condition). All of the
  /// latter share one representation.
  static CuneiformValue Pending(TaskId task = kInvalidTask);

  Kind kind() const { return rep_->kind; }
  /// kString / kFile payload.
  const std::string& str() const { return rep_->str; }
  /// kList: the number of items, and item `i`.
  size_t size() const { return rep_->size; }
  const CuneiformValue& item(size_t i) const {
    return rep_->chunks[i / kChunk]->items[i % kChunk];
  }
  /// kPending: the application this value waits on (see Pending()).
  TaskId waits_on() const { return rep_->waits_on; }
  /// True if no pending value occurs anywhere inside; O(1).
  bool IsConcrete() const { return rep_->concrete; }
  /// True if both handles share one representation, which implies equal
  /// values (equal values need not share one).
  bool SameAs(const CuneiformValue& other) const {
    return rep_ == other.rep_;
  }

  /// kList: this list with the (index, item) `changes` applied, indices
  /// ascending. Costs O(size() / kChunk) plus O(kChunk) per chunk changed.
  CuneiformValue WithItems(
      const std::vector<std::pair<size_t, CuneiformValue>>& changes) const;
  /// kList: appends to `out`, ascending, the indices at which this list's
  /// item is not SameAs `old`'s, where `old` is a list of the same size.
  /// Chunks the two lists share are skipped without being read.
  void DiffItems(const CuneiformValue& old, std::vector<size_t>* out) const;

 private:
  static constexpr size_t kChunk = 32;
  struct Chunk {
    explicit Chunk(std::vector<CuneiformValue> chunk_items);
    std::vector<CuneiformValue> items;
    bool concrete;  // every item is
  };
  struct Rep {
    Kind kind = Kind::kString;
    bool concrete = true;
    TaskId waits_on = kInvalidTask;
    std::string str;
    size_t size = 0;
    std::vector<std::shared_ptr<const Chunk>> chunks;
  };
  explicit CuneiformValue(std::shared_ptr<const Rep> rep)
      : rep_(std::move(rep)) {}
  static CuneiformValue FromChunks(
      std::vector<std::shared_ptr<const Chunk>> chunks, size_t size);

  std::shared_ptr<const Rep> rep_;
};

struct CuneiformOptions {
  /// DFS directory generated outputs are placed under.
  std::string output_dir = "/cuneiform";
  /// Guards against unbounded *static* recursion (a defun that recurses
  /// without consuming task results). Each level costs several native
  /// stack frames, so the bound is sized to trip well before the C++
  /// stack does (even under sanitizers); ~60+ data-driven iterations per
  /// sweep still fit comfortably.
  int max_eval_depth = 400;
  /// Workflow name used in provenance.
  std::string workflow_name = "cuneiform-workflow";
};

class CuneiformSource : public WorkflowSource {
 public:
  /// Parses `source_text`; fails on syntax errors.
  static Result<std::unique_ptr<CuneiformSource>> Parse(
      std::string_view source_text, CuneiformOptions options = {});

  std::string name() const override { return options_.workflow_name; }
  bool IsStatic() const override { return false; }
  Result<std::vector<TaskSpec>> Init() override;
  Result<std::vector<TaskSpec>> OnTaskCompleted(
      const TaskResult& result) override;
  bool IsDone() const override { return done_; }
  std::vector<std::string> Targets() const override;

  /// Resolved target values after completion (files flattened in order).
  const std::vector<CuneiformValue>& target_values() const {
    return target_values_;
  }

  /// Number of distinct task applications discovered so far.
  size_t applications() const { return memo_.size(); }

 private:
  CuneiformSource(cuneiform::Program program, CuneiformOptions options)
      : program_(std::move(program)),
        options_(std::move(options)),
        bindings_(program_.lets.size() + program_.targets.size()) {}

  /// A binding, and the site and combination inside it, that met an
  /// application while it was pending (site null outside a site).
  struct Waiter {
    size_t binding = 0;
    const cuneiform::Expr* site = nullptr;
    size_t combination = 0;
    bool operator==(const Waiter&) const = default;
  };

  struct AppEntry {
    TaskId task_id = kInvalidTask;
    /// Pending(task_id) until it completed, then the output value, or the
    /// list of output values when the task declares several.
    CuneiformValue value;
    TaskSpec spec;
    /// Notified when the application completes.
    std::vector<Waiter> waiters;
  };

  /// A top-level task application's last arguments (in declaration
  /// order) and value: the list of per-combination results when it
  /// mapped, its single result otherwise.
  struct Site {
    bool evaluated = false;
    std::vector<CuneiformValue> args;
    CuneiformValue value;
    /// Combinations whose application completed since `value` was made.
    std::vector<size_t> finished;
  };

  /// A top-level `let` or `target` and what its last evaluation saw.
  struct Binding {
    CuneiformValue value;
    /// No pending value occurred in the last evaluation: the value can no
    /// longer change, so the binding is never evaluated again.
    bool is_final = false;
    /// `value` is not up to date: the binding was never evaluated, its
    /// last evaluation failed, or an application it waited on completed.
    bool dirty = true;
    /// Top-level variables the last evaluation read, and their values.
    std::vector<std::pair<std::string, CuneiformValue>> reads;
    /// Keyed by the application expression (outside defun bodies).
    std::unordered_map<const cuneiform::Expr*, Site> sites;
  };

  using Env = std::map<std::string, CuneiformValue>;

  /// One reduction sweep; fills `discovered` with new tasks and sets
  /// done_ when all targets are concrete.
  Status Sweep(std::vector<TaskSpec>* discovered);
  /// Returns binding `index`'s value, re-evaluating `expr` only if that
  /// can produce a different value or discover a task.
  Result<CuneiformValue> EvalBinding(size_t index,
                                     const cuneiform::ExprPtr& expr,
                                     const Env& env);
  /// Forgets every binding and site cache: the next sweep re-evaluates
  /// the whole program.
  void DropCaches();

  /// `top` is true outside defun bodies, where env is the top-level
  /// environment of the binding being evaluated.
  Result<CuneiformValue> Eval(const cuneiform::ExprPtr& expr, const Env& env,
                              int depth, bool top);
  Result<CuneiformValue> EvalApply(const cuneiform::Expr& expr, const Env& env,
                                   int depth, bool top);
  /// Applies `def` to `args` (in declaration order), expanding list-bound
  /// single parameters into their cross product. At a top-level
  /// application (`at` not null) only the combinations that can differ
  /// from the site's last results are evaluated again.
  Result<CuneiformValue> ApplyTask(const cuneiform::TaskDef& def,
                                   const std::vector<CuneiformValue>& args,
                                   const cuneiform::Expr* at);
  /// Invokes one concrete combination (after map/cross expansion);
  /// `combo[i]` is the value of def.inputs[i].
  Result<CuneiformValue> InvokeCombination(
      const cuneiform::TaskDef& def,
      const std::vector<const CuneiformValue*>& combo);
  /// The current value of an application met during evaluation.
  CuneiformValue Lookup(AppEntry& entry);

  static bool Truthy(const CuneiformValue& v);
  static std::string Serialize(const CuneiformValue& v);

  cuneiform::Program program_;
  CuneiformOptions options_;
  std::unordered_map<std::string, AppEntry> memo_;  // app key -> entry
  std::vector<AppEntry*> entry_by_task_;            // [task id - 1]
  size_t outstanding_ = 0;  // discovered applications not yet completed
  TaskId next_task_id_ = 1;
  bool done_ = false;
  std::vector<CuneiformValue> target_values_;

  /// One per let, then one per target.
  std::vector<Binding> bindings_;
  // State of the sweep in progress.
  std::vector<TaskSpec>* discovered_ = nullptr;
  Waiter at_;                 // the binding, site and combination
                              // being evaluated
  bool saw_pending_ = false;  // a pending value occurred in the binding
};

}  // namespace hiway

#endif  // HIWAY_LANG_CUNEIFORM_H_
