// Edge-case tests for the Cuneiform-lite front-end beyond the basics in
// cuneiform_test.cc: nested control flow, mixed map/aggregate shapes,
// value outputs inside lists, shadowing, memoisation across recursion,
// and parser/interpreter error surfaces.

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/lang/cuneiform.h"
#include "src/lang/cuneiform_parser.h"

namespace hiway {
namespace {

/// Minimal driver: runs every emitted task with a scripted stdout.
class Driver {
 public:
  explicit Driver(CuneiformSource* source) : source_(source) {}

  Status RunAll(std::function<std::string(const TaskSpec&)> stdout_for = {}) {
    auto initial = source_->Init();
    HIWAY_RETURN_IF_ERROR(initial.status());
    pending_ = *initial;
    int guard = 0;
    while (!pending_.empty()) {
      if (++guard > 5000) return Status::RuntimeError("runaway");
      TaskSpec spec = pending_.front();
      pending_.erase(pending_.begin());
      executed_.push_back(spec);
      TaskResult result;
      result.id = spec.id;
      result.signature = spec.signature;
      result.status = Status::OK();
      if (stdout_for) result.stdout_value = stdout_for(spec);
      for (const OutputSpec& out : spec.outputs) {
        if (!out.is_value) result.produced_files.emplace_back(out.path, 64);
      }
      auto more = source_->OnTaskCompleted(result);
      HIWAY_RETURN_IF_ERROR(more.status());
      pending_.insert(pending_.end(), more->begin(), more->end());
    }
    return Status::OK();
  }

  int Count(const std::string& signature) const {
    int n = 0;
    for (const TaskSpec& t : executed_) {
      if (t.signature == signature) ++n;
    }
    return n;
  }

  std::vector<TaskSpec> executed_;

 private:
  CuneiformSource* source_;
  std::vector<TaskSpec> pending_;
};

TEST(CuneiformEdgeTest, NestedConditionals) {
  auto source = CuneiformSource::Parse(R"(
    deftask probe( <v> : ~tag ) in 'probe';
    deftask act( o : ~which ) in 'act';
    target if probe( tag: 'outer' )
           then if probe( tag: 'inner' )
                then act( which: 'both' )
                else act( which: 'outer-only' )
                end
           else act( which: 'neither' )
           end;
  )");
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  Driver driver(source->get());
  ASSERT_TRUE(driver.RunAll([](const TaskSpec& t) -> std::string {
    if (t.signature != "probe") return "";
    return t.params.at("tag") == "outer" ? "yes" : "";
  }).ok());
  // outer probe true, inner probe false -> act(outer-only); the inner
  // probe only ran after the outer resolved.
  EXPECT_EQ(driver.Count("probe"), 2);
  EXPECT_EQ(driver.Count("act"), 1);
  EXPECT_EQ(driver.executed_.back().params.at("which"), "outer-only");
}

TEST(CuneiformEdgeTest, MapFeedsAggregateFeedsMap) {
  auto source = CuneiformSource::Parse(R"(
    deftask split( part : whole ) in 'splitter';
    deftask merge( all : [parts] ) in 'merger';
    deftask polish( out : item ) in 'polisher';
    let parts = split( whole: ['/a', '/b', '/c'] );
    let merged = merge( parts: parts );
    target polish( item: merged );
  )");
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  Driver driver(source->get());
  ASSERT_TRUE(driver.RunAll().ok());
  EXPECT_EQ(driver.Count("split"), 3);
  EXPECT_EQ(driver.Count("merge"), 1);
  EXPECT_EQ(driver.Count("polish"), 1);
  // Ordering: all splits precede the merge, which precedes the polish.
  EXPECT_EQ(driver.executed_[3].signature, "merge");
  EXPECT_EQ(driver.executed_[4].signature, "polish");
}

TEST(CuneiformEdgeTest, MultiOutputTaskYieldsTuple) {
  auto source = CuneiformSource::Parse(R"(
    deftask both( left right : i ) in 'both';
    deftask useL( o : x ) in 'use-l';
    let pair = both( i: '/in' );
    target pair;
  )");
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  Driver driver(source->get());
  ASSERT_TRUE(driver.RunAll().ok());
  EXPECT_EQ(driver.Count("both"), 1);
  // Targets flatten the tuple: two files.
  EXPECT_EQ((*source)->Targets().size(), 2u);
}

TEST(CuneiformEdgeTest, ValueOutputsInsideListsAndTruthiness) {
  auto source = CuneiformSource::Parse(R"(
    deftask vote( <v> : ~name ) in 'voter';
    deftask yes( o : ~t ) in 'yes';
    deftask no( o : ~t ) in 'no';
    let votes = [ vote( name: 'a' ), vote( name: 'b' ) ];
    target if votes then yes( t: 'quorum' ) else no( t: 'none' ) end;
  )");
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  Driver driver(source->get());
  // The condition is a non-empty *list*: truthy regardless of contents,
  // but all elements must resolve before the branch is taken.
  ASSERT_TRUE(driver.RunAll([](const TaskSpec&) { return ""; }).ok());
  EXPECT_EQ(driver.Count("vote"), 2);
  EXPECT_EQ(driver.Count("yes"), 1);
  EXPECT_EQ(driver.Count("no"), 0);
}

TEST(CuneiformEdgeTest, LetShadowingUsesLatestBinding) {
  auto source = CuneiformSource::Parse(R"(
    deftask t( o : ~s ) in 'tool';
    let x = 'first';
    let x = x + '-second';
    target t( s: x );
  )");
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  Driver driver(source->get());
  ASSERT_TRUE(driver.RunAll().ok());
  EXPECT_EQ(driver.executed_[0].params.at("s"), "first-second");
}

TEST(CuneiformEdgeTest, MemoisationHoldsThroughRecursionReplay) {
  // Each recursion level replays the whole program; the task invoked at
  // level k must not be re-submitted at level k+1.
  auto source = CuneiformSource::Parse(R"(
    deftask step( next : c ) in 'step';
    deftask check( <ok> : c ) in 'check';
    defun go(c) {
      if check( c: c ) then c else go( step( c: c ) ) end
    }
    target go( '/seed' );
  )");
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  Driver driver(source->get());
  int checks = 0;
  ASSERT_TRUE(driver.RunAll([&checks](const TaskSpec& t) -> std::string {
    if (t.signature == "check") return ++checks >= 5 ? "true" : "";
    return "";
  }).ok());
  EXPECT_EQ(driver.Count("check"), 5);
  EXPECT_EQ(driver.Count("step"), 4);
  // 9 total — replay submitted nothing twice.
  EXPECT_EQ(driver.executed_.size(), 9u);
  EXPECT_EQ((*source)->applications(), 9u);
}

TEST(CuneiformEdgeTest, CrossProductOrderIsRowMajor) {
  auto source = CuneiformSource::Parse(R"(
    deftask mix( o : a b ) in 'mixer';
    target mix( a: ['/a0', '/a1'], b: ['/b0', '/b1'] );
  )");
  ASSERT_TRUE(source.ok());
  Driver driver(source->get());
  ASSERT_TRUE(driver.RunAll().ok());
  ASSERT_EQ(driver.executed_.size(), 4u);
  auto inputs = [&](size_t i) {
    return StrJoin(driver.executed_[i].input_files, "+");
  };
  EXPECT_EQ(inputs(0), "/a0+/b0");
  EXPECT_EQ(inputs(1), "/a0+/b1");
  EXPECT_EQ(inputs(2), "/a1+/b0");
  EXPECT_EQ(inputs(3), "/a1+/b1");
}

TEST(CuneiformEdgeTest, TaskPropsBecomeContainerSizingAndParams) {
  auto source = CuneiformSource::Parse(R"(
    deftask heavy( o : i ) in 'heavy' { cpu: 8, mem: 16384, mode: 'fast' };
    target heavy( i: '/in' );
  )");
  ASSERT_TRUE(source.ok());
  Driver driver(source->get());
  ASSERT_TRUE(driver.RunAll().ok());
  const TaskSpec& t = driver.executed_[0];
  EXPECT_EQ(t.vcores, 8);
  EXPECT_DOUBLE_EQ(t.memory_mb, 16384.0);
  EXPECT_EQ(t.params.at("mode"), "fast");
}

TEST(CuneiformEdgeTest, ErrorsSurfaceCleanly) {
  struct Case {
    const char* program;
    const char* expect_substr;
  };
  const Case cases[] = {
      {"deftask t( o : i ) in 'x'; target t( '/a' );", "named"},
      {"deftask t( o : i ) in 'x'; target t( i: '/a', j: '/b' );",
       "expects"},
      {"deftask t( o : i ) in 'x'; target t( j: '/a' );", "missing"},
      {"defun f(a) { a } target f('x', 'y');", "expects"},
      {"deftask t( o : [xs] ) in 'x'; target t( xs: 'single' );", "list"},
      {"target 'a' + ['l'];", "concatenate"},
  };
  for (const Case& c : cases) {
    auto source = CuneiformSource::Parse(c.program);
    ASSERT_TRUE(source.ok()) << c.program;
    Driver driver(source->get());
    Status st = driver.RunAll();
    EXPECT_FALSE(st.ok()) << c.program;
    EXPECT_NE(st.message().find(c.expect_substr), std::string::npos)
        << c.program << " -> " << st.ToString();
  }
}

TEST(CuneiformEdgeTest, TargetsMayMixConcreteStringsAndTasks) {
  auto source = CuneiformSource::Parse(R"(
    deftask t( o : i ) in 'x';
    target 'just-a-string', t( i: '/in' );
  )");
  ASSERT_TRUE(source.ok());
  Driver driver(source->get());
  ASSERT_TRUE(driver.RunAll().ok());
  EXPECT_TRUE((*source)->IsDone());
  // Only file values appear among Targets (the string is a value).
  EXPECT_EQ((*source)->Targets().size(), 1u);
}

TEST(CuneiformEdgeTest, WhitespaceAndCommentRobustness) {
  auto source = CuneiformSource::Parse(
      "% header comment\n"
      "deftask   t(  o  :  i  )  in  'x'  ;  % trailing\n"
      "\n\n"
      "target\n t(\n i:\n '/in'\n )\n ;\n% eof");
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  Driver driver(source->get());
  EXPECT_TRUE(driver.RunAll().ok());
}

TEST(CuneiformEdgeTest, MemoKeysEscapeQuotesAndBackslashes) {
  // Unescaped, both applications serialised to the memo key
  // t(a=s'1';b=s'2';b=s'3';): Init() discovered one task and the second
  // application silently got the first one's outputs.
  const char* program = R"(
    deftask t( o : ~a ~b ) in 'tool';
    target t( a: '1\';b=s\'2', b: '3' ), t( a: '1', b: '2\';b=s\'3' );
  )";
  auto source = CuneiformSource::Parse(program);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  auto initial = (*source)->Init();
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();
  ASSERT_EQ(initial->size(), 2u);
  EXPECT_EQ((*initial)[0].command, R"(t(a=s'1\';b=s\'2';b=s'3';))");
  EXPECT_EQ((*initial)[1].command, R"(t(a=s'1';b=s'2\';b=s\'3';))");
  EXPECT_NE((*initial)[0].outputs[0].path, (*initial)[1].outputs[0].path);
  EXPECT_EQ((*initial)[0].params.at("a"), "1';b=s'2");
  EXPECT_EQ((*initial)[1].params.at("b"), "2';b=s'3");

  // Run to completion: each application resolves to its own output.
  auto run = CuneiformSource::Parse(program);
  ASSERT_TRUE(run.ok());
  Driver driver(run->get());
  ASSERT_TRUE(driver.RunAll().ok());
  EXPECT_EQ(driver.Count("t"), 2);
  std::vector<std::string> targets = (*run)->Targets();
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_NE(targets[0], targets[1]);
}

TEST(CuneiformEdgeTest, MemoKeysWithoutQuotesAreUnchanged) {
  // Only ' and \ are escaped, so every other key, and the output path
  // hashed from it, is byte-identical to the unescaped form.
  auto source = CuneiformSource::Parse(R"(
    deftask t( o : ~s i ) in 'tool';
    target t( s: 'a b;c=d', i: '/in/x.fq' );
  )");
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  auto initial = (*source)->Init();
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();
  ASSERT_EQ(initial->size(), 1u);
  const std::string key = "t(s=s'a b;c=d';i=s'/in/x.fq';)";
  EXPECT_EQ((*initial)[0].command, key);
  EXPECT_EQ((*initial)[0].outputs[0].path,
            StrFormat("/cuneiform/t-%016llx/o.dat",
                      static_cast<unsigned long long>(Fnv1a64(key))));
}

// --- fuzz regressions (tests/fuzz/corpus/cuneiform/, docs/fuzzing.md) ----

TEST(CuneiformFuzzRegressionTest, DeepParensErrorNotStackOverflow) {
  // crash_deep_parens.cf: 200k nested '(' recursed once per character and
  // crashed with SIGSEGV (stack exhaustion). The parser now refuses at
  // kCuneiformMaxExprDepth with an error naming the limit.
  std::string src = "let x = ";
  src += std::string(static_cast<size_t>(cuneiform::kCuneiformMaxExprDepth) + 50, '(');
  src += "'a'";
  src += std::string(static_cast<size_t>(cuneiform::kCuneiformMaxExprDepth) + 50, ')');
  src += ";\ntarget x;\n";
  auto source = CuneiformSource::Parse(src);
  ASSERT_FALSE(source.ok());
  EXPECT_NE(source.status().ToString().find("kMaxExprDepth"),
            std::string::npos)
      << source.status().ToString();
}

TEST(CuneiformFuzzRegressionTest, InputSizeErrorNamesLimit) {
  std::string src(cuneiform::kCuneiformMaxInputBytes + 1, '%');  // one huge comment
  auto source = CuneiformSource::Parse(src);
  ASSERT_FALSE(source.ok());
  EXPECT_NE(source.status().ToString().find("kCuneiformMaxInputBytes"),
            std::string::npos)
      << source.status().ToString();
}

}  // namespace
}  // namespace hiway
