// Test-only reference interpreter for Cuneiform-lite: the literal reading
// of the paper's iterative driver (Sec. 3.3). After every task completion
// it re-reduces the whole program from the root: every `let` and `target`
// is re-evaluated, every list is deep-copied through the environment and
// the argument maps, and every concrete combination re-serialises its
// memo key to find out whether it is new.
//
// CuneiformSource (src/lang/cuneiform.h) skips the parts of that sweep
// that cannot change: final bindings, bindings none of whose inputs
// changed, and mapped combinations whose arguments and result are
// unchanged. It must discover exactly the same tasks in the same order,
// with the same ids, commands and output paths, and resolve the same
// targets, for any completion order (cuneiform_incremental_test).

#ifndef HIWAY_TESTS_ORACLES_CUNEIFORM_ORACLE_H_
#define HIWAY_TESTS_ORACLES_CUNEIFORM_ORACLE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/lang/cuneiform.h"
#include "src/lang/cuneiform_ast.h"
#include "src/lang/workflow.h"

namespace hiway {

/// The reference interpreter's value: a plain deep-copied tree.
struct CuneiformRefValue {
  enum class Kind { kString, kFile, kList, kPending };
  Kind kind = Kind::kString;
  std::string str;                        // kString / kFile payload
  std::vector<CuneiformRefValue> items;   // kList payload

  static CuneiformRefValue String(std::string s);
  static CuneiformRefValue File(std::string path);
  static CuneiformRefValue List(std::vector<CuneiformRefValue> items);
  static CuneiformRefValue Pending();

  /// True if no pending value occurs anywhere inside (walks the tree).
  bool IsConcrete() const;
};

class CuneiformOracle : public WorkflowSource {
 public:
  static Result<std::unique_ptr<CuneiformOracle>> Parse(
      std::string_view source_text, CuneiformOptions options = {});

  std::string name() const override { return options_.workflow_name; }
  bool IsStatic() const override { return false; }
  Result<std::vector<TaskSpec>> Init() override;
  Result<std::vector<TaskSpec>> OnTaskCompleted(
      const TaskResult& result) override;
  bool IsDone() const override { return done_; }
  std::vector<std::string> Targets() const override;

  const std::vector<CuneiformRefValue>& target_values() const {
    return target_values_;
  }
  size_t applications() const { return memo_.size(); }

 private:
  CuneiformOracle(cuneiform::Program program, CuneiformOptions options)
      : program_(std::move(program)), options_(std::move(options)) {}

  struct AppEntry {
    TaskId task_id = kInvalidTask;
    bool done = false;
    std::map<std::string, CuneiformRefValue> outputs;
    TaskSpec spec;
  };

  using Env = std::map<std::string, CuneiformRefValue>;

  Status Sweep(std::vector<TaskSpec>* discovered);
  Result<CuneiformRefValue> Eval(const cuneiform::ExprPtr& expr,
                                 const Env& env, int depth,
                                 std::vector<TaskSpec>* discovered);
  Result<CuneiformRefValue> EvalApply(const cuneiform::Expr& expr,
                                      const Env& env, int depth,
                                      std::vector<TaskSpec>* discovered);
  Result<CuneiformRefValue> ApplyTask(
      const cuneiform::TaskDef& def,
      const std::map<std::string, CuneiformRefValue>& args,
      std::vector<TaskSpec>* discovered);
  Result<CuneiformRefValue> InvokeCombination(
      const cuneiform::TaskDef& def,
      const std::map<std::string, CuneiformRefValue>& args,
      const std::map<std::string, const CuneiformRefValue*>& overrides,
      std::vector<TaskSpec>* discovered);

  static bool Truthy(const CuneiformRefValue& v);
  static std::string Serialize(const CuneiformRefValue& v);

  cuneiform::Program program_;
  CuneiformOptions options_;
  std::map<std::string, AppEntry> memo_;
  std::map<TaskId, std::string> key_by_task_;
  TaskId next_task_id_ = 1;
  bool done_ = false;
  std::vector<CuneiformRefValue> target_values_;
};

}  // namespace hiway

#endif  // HIWAY_TESTS_ORACLES_CUNEIFORM_ORACLE_H_
