// The incremental Cuneiform interpreter against the full re-sweep oracle
// (tests/oracles/cuneiform_oracle.h).
//
// Both interpreters run the same program in lockstep: every discovered
// task is completed in a seeded random order with a random stdout value,
// and after Init() and after each completion both must report the same
// status, the same newly discovered TaskSpecs (id, signature, command,
// tool, inputs, params, outputs, sizing), the same IsDone(), Targets()
// and target values. Programs: SNV calling at 288 chunks, k-means with
// converge_after 1-6, every program of cuneiform_edge_test.cc, the fuzz
// corpus seed, and shapes aimed at the skip rules (discarded pending
// values, shadowing, cross products of task outputs, late errors).

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/strings.h"
#include "src/lang/cuneiform.h"
#include "src/workloads/workloads.h"
#include "tests/oracles/cuneiform_oracle.h"

namespace hiway {
namespace {

std::string Render(const CuneiformValue& v) {
  switch (v.kind()) {
    case CuneiformValue::Kind::kString:
      return "s'" + v.str() + "'";
    case CuneiformValue::Kind::kFile:
      return "f'" + v.str() + "'";
    case CuneiformValue::Kind::kPending:
      return "<pending>";
    case CuneiformValue::Kind::kList: {
      std::vector<std::string> items;
      for (size_t i = 0; i < v.size(); ++i) items.push_back(Render(v.item(i)));
      return "[" + StrJoin(items, ",") + "]";
    }
  }
  return "?";
}

std::string Render(const CuneiformRefValue& v) {
  switch (v.kind) {
    case CuneiformRefValue::Kind::kString:
      return "s'" + v.str + "'";
    case CuneiformRefValue::Kind::kFile:
      return "f'" + v.str + "'";
    case CuneiformRefValue::Kind::kPending:
      return "<pending>";
    case CuneiformRefValue::Kind::kList: {
      std::vector<std::string> items;
      for (const CuneiformRefValue& item : v.items) {
        items.push_back(Render(item));
      }
      return "[" + StrJoin(items, ",") + "]";
    }
  }
  return "?";
}

template <typename Values>
std::vector<std::string> RenderAll(const Values& values) {
  std::vector<std::string> out;
  for (const auto& v : values) out.push_back(Render(v));
  return out;
}

std::string Render(const TaskSpec& t) {
  std::ostringstream os;
  os << t.id << "|" << t.signature << "|" << t.command << "|" << t.tool
     << "|" << StrJoin(t.input_files, "+") << "|";
  for (const auto& [k, v] : t.params) os << k << "=" << v << ";";
  os << "|";
  for (const OutputSpec& o : t.outputs) {
    os << o.param << ":" << o.path << ":" << o.is_value << ":"
       << o.size_bytes.value_or(-1) << ";";
  }
  os << "|" << t.vcores << "|" << t.memory_mb;
  return os.str();
}

std::vector<std::string> RenderAll(const std::vector<TaskSpec>& specs) {
  std::vector<std::string> out;
  for (const TaskSpec& t : specs) out.push_back(Render(t));
  return out;
}

/// stdout for a completed task; the default draws from a mix of truthy
/// and falsy strings.
using StdoutFn = std::function<std::string(const TaskSpec&, Rng*)>;

std::string RandomStdout(const TaskSpec&, Rng* rng) {
  static const char* const kValues[] = {"", "true", "false", "0", "1", "yes"};
  return kValues[rng->UniformInt(6)];
}

struct LockstepStats {
  int completions = 0;
  int tasks = 0;
  bool done = false;
};

/// Runs `text` through both interpreters with completion order and stdout
/// drawn from `seed`; stops after `max_completions`, on the first error
/// (which must be the same in both), or when no task is left. With
/// `repeat_prob` > 0 an already completed task is sometimes completed
/// again with a fresh stdout value.
LockstepStats RunLockstep(const std::string& text, uint64_t seed,
                          int max_completions, const StdoutFn& stdout_for,
                          double repeat_prob = 0.0) {
  LockstepStats stats;
  auto prod = CuneiformSource::Parse(text);
  auto ref = CuneiformOracle::Parse(text);
  EXPECT_EQ(prod.ok(), ref.ok());
  if (!prod.ok() || !ref.ok()) return stats;
  CuneiformSource& a = **prod;
  CuneiformOracle& b = **ref;
  Rng rng(seed);
  std::vector<TaskSpec> running;
  std::vector<TaskSpec> completed;

  // Compares one step's outcome; returns false once the run should stop.
  auto step = [&](const Result<std::vector<TaskSpec>>& got,
                  const Result<std::vector<TaskSpec>>& want,
                  const std::string& where) {
    SCOPED_TRACE(where);
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    if (!got.ok() || !want.ok()) return false;
    EXPECT_EQ(RenderAll(*got), RenderAll(*want));
    EXPECT_EQ(a.IsDone(), b.IsDone());
    EXPECT_EQ(a.Targets(), b.Targets());
    EXPECT_EQ(RenderAll(a.target_values()), RenderAll(b.target_values()));
    EXPECT_EQ(a.applications(), b.applications());
    running.insert(running.end(), want->begin(), want->end());
    stats.tasks += static_cast<int>(want->size());
    stats.done = b.IsDone();
    return !::testing::Test::HasFailure();
  };

  if (!step(a.Init(), b.Init(), "Init")) return stats;
  while (stats.completions < max_completions) {
    const bool repeat =
        !completed.empty() && rng.NextDouble() < repeat_prob;
    if (running.empty() && !repeat) break;
    TaskSpec spec;
    if (repeat) {
      spec = completed[rng.UniformInt(completed.size())];
    } else {
      size_t pick = rng.UniformInt(running.size());
      spec = running[pick];
      running[pick] = running.back();
      running.pop_back();
      completed.push_back(spec);
    }
    TaskResult result;
    result.id = spec.id;
    result.signature = spec.signature;
    result.status = Status::OK();
    result.stdout_value = stdout_for(spec, &rng);
    for (const OutputSpec& out : spec.outputs) {
      if (!out.is_value) result.produced_files.emplace_back(out.path, 64);
    }
    ++stats.completions;
    if (!step(a.OnTaskCompleted(result), b.OnTaskCompleted(result),
              StrFormat("completion %d of task %lld (seed %llu)",
                        stats.completions, static_cast<long long>(spec.id),
                        static_cast<unsigned long long>(seed)))) {
      break;
    }
  }
  return stats;
}

TEST(CuneiformIncrementalTest, SnvCallingAt288Chunks) {
  SnvWorkloadOptions options;
  options.num_chunks = 288;
  const std::string text = MakeSnvCallingWorkflow(options).document;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    LockstepStats stats = RunLockstep(text, seed, 1 << 20, RandomStdout);
    EXPECT_EQ(stats.tasks, 4 * 288);
    EXPECT_EQ(stats.completions, 4 * 288);
    EXPECT_TRUE(stats.done);
  }
}

TEST(CuneiformIncrementalTest, KmeansConvergeAfterOneToSix) {
  for (int converge_after = 1; converge_after <= 6; ++converge_after) {
    KmeansWorkloadOptions options;
    options.converge_after = converge_after;
    const std::string text = MakeKmeansWorkflow(options).document;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      int checks = 0;
      StdoutFn stdout_for = [&](const TaskSpec& t, Rng* rng) {
        if (t.signature != "check") return RandomStdout(t, rng);
        return ++checks >= converge_after ? std::string("true")
                                          : std::string("");
      };
      LockstepStats stats = RunLockstep(text, seed, 1000, stdout_for);
      EXPECT_TRUE(stats.done) << "converge_after " << converge_after;
      // init + converge_after iterations of (step + check).
      EXPECT_EQ(stats.tasks, 1 + 2 * converge_after);
    }
  }
}

/// Every program of cuneiform_edge_test.cc, the memo-key regression, and
/// shapes aimed at the skip rules. Error programs must fail identically.
const std::vector<std::string>& Programs() {
  static const auto* programs = new std::vector<std::string>{
      // cuneiform_edge_test.cc
      R"(deftask probe( <v> : ~tag ) in 'probe';
         deftask act( o : ~which ) in 'act';
         target if probe( tag: 'outer' )
                then if probe( tag: 'inner' )
                     then act( which: 'both' )
                     else act( which: 'outer-only' )
                     end
                else act( which: 'neither' )
                end;)",
      R"(deftask split( part : whole ) in 'splitter';
         deftask merge( all : [parts] ) in 'merger';
         deftask polish( out : item ) in 'polisher';
         let parts = split( whole: ['/a', '/b', '/c'] );
         let merged = merge( parts: parts );
         target polish( item: merged );)",
      R"(deftask both( left right : i ) in 'both';
         deftask useL( o : x ) in 'use-l';
         let pair = both( i: '/in' );
         target pair;)",
      R"(deftask vote( <v> : ~name ) in 'voter';
         deftask yes( o : ~t ) in 'yes';
         deftask no( o : ~t ) in 'no';
         let votes = [ vote( name: 'a' ), vote( name: 'b' ) ];
         target if votes then yes( t: 'quorum' ) else no( t: 'none' ) end;)",
      R"(deftask t( o : ~s ) in 'tool';
         let x = 'first';
         let x = x + '-second';
         target t( s: x );)",
      R"(deftask step( next : c ) in 'step';
         deftask check( <ok> : c ) in 'check';
         defun go(c) {
           if check( c: c ) then c else go( step( c: c ) ) end
         }
         target go( '/seed' );)",
      R"(deftask mix( o : a b ) in 'mixer';
         target mix( a: ['/a0', '/a1'], b: ['/b0', '/b1'] );)",
      R"(deftask heavy( o : i ) in 'heavy' { cpu: 8, mem: 16384, mode: 'fast' };
         target heavy( i: '/in' );)",
      "deftask t( o : i ) in 'x'; target t( '/a' );",
      "deftask t( o : i ) in 'x'; target t( i: '/a', j: '/b' );",
      "deftask t( o : i ) in 'x'; target t( j: '/a' );",
      "defun f(a) { a } target f('x', 'y');",
      "deftask t( o : [xs] ) in 'x'; target t( xs: 'single' );",
      "target 'a' + ['l'];",
      R"(deftask t( o : i ) in 'x';
         target 'just-a-string', t( i: '/in' );)",
      "% header comment\n"
      "deftask   t(  o  :  i  )  in  'x'  ;  % trailing\n"
      "\n\n"
      "target\n t(\n i:\n '/in'\n )\n ;\n% eof",
      // Memo keys must tell these two applications apart.
      R"(deftask t( o : ~a ~b ) in 'tool';
         target t( a: '1\';b=s\'2', b: '3' ), t( a: '1', b: '2\';b=s\'3' );)",
      // A pending value that a defun discards: the binding is concrete at
      // once but must still discover t once p resolves.
      R"(deftask p( <v> : ~s ) in 'p';
         deftask t( o : ~s ) in 't';
         defun ignore(x) { 'const' }
         let y = ignore( if p( s: 'go' ) then t( s: 'late' ) else 'no' end );
         target y;)",
      // Shadowing over task results, and a target reading both versions.
      R"(deftask f( o : i ) in 'f';
         deftask g( o : i ) in 'g';
         let x = f( i: ['/a', '/b'] );
         let y = x;
         let x = g( i: x );
         target x, y;)",
      // Cross product of two task-produced lists feeding an aggregate and
      // a value-driven branch per element.
      R"(deftask a( o : i ) in 'a';
         deftask b( o : i ) in 'b';
         deftask mix( o : l r ) in 'mix';
         deftask all( o : [xs] ) in 'all';
         deftask test( <v> : x ) in 'test';
         deftask keep( o : x ) in 'keep';
         defun pick(x) { if test( x: x ) then keep( x: x ) else x end }
         let ls = a( i: ['/1', '/2', '/3'] );
         let rs = b( i: ['/4', '/5'] );
         let grid = mix( l: ls, r: rs );
         target all( xs: grid ), pick( all( xs: ls ) );)",
      // Multi-output tasks mapped over a list, then projected by a map.
      R"(deftask both( left right : i ) in 'both';
         deftask use( o : x ) in 'use';
         let pairs = both( i: ['/a', '/b'] );
         target use( x: pairs );)",
      // A list built from pending elements, mapped, plus a concat on a
      // value output.
      R"(deftask v( <out> : ~s ) in 'v';
         deftask t( o : ~s ) in 't';
         let names = [ v( s: 'a' ), v( s: 'b' ) + '-x', 'c' ];
         target t( s: names );)",
      // An error that only appears once a value output arrives.
      R"(deftask d( <v> : ~s ) in 'd';
         deftask t( o : ~s ) in 't';
         target if d( s: 'x' ) then 'a' + ['l'] else t( s: 'fine' ) end;)",
      // Static recursion behind a data-dependent branch.
      R"(deftask d( <v> : ~s ) in 'd';
         defun loop(x) { loop(x) }
         target if d( s: 'x' ) then loop( 'a' ) else 'ok' end;)",
      // Mapping over an empty list, and a list that becomes empty.
      R"(deftask t( o : i ) in 't';
         deftask d( <v> : ~s ) in 'd';
         let none = t( i: [] );
         target none, t( i: if d( s: 'x' ) then [] else ['/z'] end );)",
      // Tasks without inputs: one combination and no arguments.
      R"(deftask t( o : ) in 't';
         deftask u( <v> : ) in 'u';
         target t(), if u() then t() else 'n' end;)",
      "target nope;",
      "defun loop(x) { loop(x) }\ntarget loop('a');",
  };
  return *programs;
}

TEST(CuneiformIncrementalTest, EdgeProgramsInRandomOrders) {
  for (size_t i = 0; i < Programs().size(); ++i) {
    SCOPED_TRACE(Programs()[i]);
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      RunLockstep(Programs()[i], seed, 200, RandomStdout);
    }
  }
}

TEST(CuneiformIncrementalTest, RepeatedCompletionsRebindOutputs) {
  // The driver never completes a task twice, but the interpreter accepts
  // it and rebinds the outputs; cached values must not hide that.
  for (size_t i = 0; i < Programs().size(); ++i) {
    SCOPED_TRACE(Programs()[i]);
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      RunLockstep(Programs()[i], seed, 60, RandomStdout,
                  /*repeat_prob=*/0.2);
    }
  }
}

TEST(CuneiformIncrementalTest, FuzzCorpusSeed) {
  std::ifstream in(std::string(HIWAY_CUNEIFORM_CORPUS_DIR) +
                   "/seed_align.cf");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    LockstepStats stats = RunLockstep(text.str(), seed, 100, RandomStdout);
    EXPECT_TRUE(stats.done);
  }
}

TEST(CuneiformIncrementalTest, UnknownCompletionFailsInBoth) {
  const std::string text = "deftask t( o : i ) in 'x'; target t( i: '/a' );";
  auto prod = CuneiformSource::Parse(text);
  auto ref = CuneiformOracle::Parse(text);
  ASSERT_TRUE(prod.ok() && ref.ok());
  ASSERT_TRUE((*prod)->Init().ok());
  ASSERT_TRUE((*ref)->Init().ok());
  for (TaskId id : {TaskId{0}, TaskId{2}, TaskId{-1}}) {
    TaskResult result;
    result.id = id;
    EXPECT_EQ((*prod)->OnTaskCompleted(result).status().ToString(),
              (*ref)->OnTaskCompleted(result).status().ToString());
  }
}

}  // namespace
}  // namespace hiway
