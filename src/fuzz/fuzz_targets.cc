#include "src/fuzz/fuzz_targets.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "src/common/json.h"
#include "src/common/strings.h"
#include "src/common/xml.h"
#include "src/infra/karamel.h"
#include "src/lang/cuneiform.h"
#include "src/lang/cwl_source.h"
#include "src/lang/dax_source.h"
#include "src/lang/galaxy_source.h"
#include "src/lang/trace_source.h"
#include "src/lang/workflow_validate.h"
#include "src/sim/fault_injector.h"

namespace hiway {
namespace fuzz {

namespace {

bool g_throw_mode = false;

std::string_view AsView(const uint8_t* data, size_t size) {
  return std::string_view(reinterpret_cast<const char*>(data), size);
}

/// Harness invariant shared by every workflow front-end: a source that
/// accepted the input must emit a structurally valid task graph.
void CheckSourceTasks(WorkflowSource* source, const char* lang) {
  auto tasks = source->Init();
  HIWAY_FUZZ_INVARIANT(tasks.ok(), std::string(lang) +
                                       " source accepted input but Init() "
                                       "failed: " +
                                       tasks.status().message());
  Status valid = ValidateWorkflowTasks(*tasks);
  HIWAY_FUZZ_INVARIANT(valid.ok(), std::string(lang) +
                                       " source emitted an invalid task "
                                       "graph: " +
                                       valid.message());
}

// ---- targets --------------------------------------------------------------

/// Splits a Cuneiform memo key, `<signature>(p=v;...)` with each v one of
/// s'...', f'...' (a backslash escapes the next character) or [v,...],
/// into its parameter names. False if the key is malformed.
bool MemoKeyParams(std::string_view key, std::string_view signature,
                   std::vector<std::string>* params) {
  if (key.size() < signature.size() + 2 ||
      key.substr(0, signature.size()) != signature ||
      key[signature.size()] != '(' || key.back() != ')') {
    return false;
  }
  size_t i = signature.size() + 1;
  const size_t end = key.size() - 1;
  std::function<bool()> value = [&]() {
    if (i < end && (key[i] == 's' || key[i] == 'f')) {
      if (++i >= end || key[i++] != '\'') return false;
      while (i < end && key[i] != '\'') i += key[i] == '\\' ? 2 : 1;
      return i++ < end;
    }
    if (i >= end || key[i++] != '[') return false;
    if (i < end && key[i] == ']') return ++i, true;
    while (value() && i < end) {
      if (key[i] == ']') return ++i, true;
      if (key[i++] != ',') return false;
    }
    return false;
  };
  while (i < end) {
    size_t eq = key.find('=', i);
    if (eq >= end) return false;
    params->emplace_back(key.substr(i, eq - i));
    i = eq + 1;
    if (!value() || i >= end || key[i++] != ';') return false;
  }
  return true;
}

void FuzzCuneiform(const uint8_t* data, size_t size) {
  // Parse, then a budgeted run: Init() plus at most 64 completions in
  // discovery order, with value outputs drawn from the input bytes. The
  // language is Turing-complete, so the budget caps completions; each
  // sweep is bounded by CuneiformOptions::max_eval_depth.
  constexpr int kMaxCompletions = 64;
  static const char* const kStdout[] = {"", "true", "false", "0", "1"};
  auto source = CuneiformSource::Parse(AsView(data, size));
  if (!source.ok()) return;
  std::set<std::string> commands;
  std::set<TaskId> completed;
  TaskId last_id = kInvalidTask;
  std::deque<TaskSpec> queue;
  // Checks one sweep's outcome; false once evaluation failed.
  auto admit = [&](Result<std::vector<TaskSpec>> tasks) {
    if (!tasks.ok()) return false;
    for (TaskSpec& t : *tasks) {
      HIWAY_FUZZ_INVARIANT(
          t.id > last_id,
          StrFormat("task id %lld discovered after %lld",
                    static_cast<long long>(t.id),
                    static_cast<long long>(last_id)));
      last_id = t.id;
      // The command is the memo key. It must name one application: no
      // task is discovered twice, and the key decodes with each parameter
      // once (unescaped quotes let one argument forge another's
      // parameters, so two applications shared one task and its outputs).
      HIWAY_FUZZ_INVARIANT(commands.insert(t.command).second,
                           "two tasks share the command " + t.command);
      std::vector<std::string> params;
      HIWAY_FUZZ_INVARIANT(MemoKeyParams(t.command, t.signature, &params),
                           "malformed memo key " + t.command);
      std::set<std::string> distinct(params.begin(), params.end());
      HIWAY_FUZZ_INVARIANT(distinct.size() == params.size(),
                           "memo key repeats a parameter: " + t.command);
      queue.push_back(std::move(t));
    }
    // Cached values must follow completions: nothing a target holds may
    // still wait on an application that has completed.
    std::function<void(const CuneiformValue&)> check_fresh =
        [&](const CuneiformValue& v) {
          if (v.kind() == CuneiformValue::Kind::kList) {
            for (size_t i = 0; i < v.size(); ++i) check_fresh(v.item(i));
          }
          HIWAY_FUZZ_INVARIANT(
              v.kind() != CuneiformValue::Kind::kPending ||
                  completed.count(v.waits_on()) == 0,
              StrFormat("a target still waits on completed task %lld",
                        static_cast<long long>(v.waits_on())));
        };
    for (const CuneiformValue& v : (*source)->target_values()) {
      HIWAY_FUZZ_INVARIANT(v.IsConcrete() || !(*source)->IsDone(),
                           "IsDone() with a pending target");
      check_fresh(v);
    }
    return true;
  };
  if (!admit((*source)->Init())) return;
  for (int k = 0; k < kMaxCompletions && !queue.empty(); ++k) {
    TaskSpec spec = std::move(queue.front());
    queue.pop_front();
    TaskResult result;
    result.id = spec.id;
    result.signature = spec.signature;
    result.stdout_value = kStdout[data[static_cast<size_t>(k) % size] % 5];
    for (const OutputSpec& out : spec.outputs) {
      if (!out.is_value) result.produced_files.emplace_back(out.path, 64);
    }
    completed.insert(spec.id);
    if (!admit((*source)->OnTaskCompleted(result))) return;
  }
}

void FuzzJson(const uint8_t* data, size_t size) {
  auto doc = Json::Parse(AsView(data, size));
  if (!doc.ok()) return;
  // Round-trip fixpoint: dump -> parse must succeed and yield an equal
  // value, for both compact and indented forms.
  std::string compact = doc->Dump();
  auto again = Json::Parse(compact);
  HIWAY_FUZZ_INVARIANT(again.ok(),
                       "JSON round-trip re-parse failed: " +
                           again.status().message() + " for " + compact);
  HIWAY_FUZZ_INVARIANT(*again == *doc,
                       "JSON round-trip changed the value: " + compact);
  std::string indented = doc->Dump(2);
  auto pretty = Json::Parse(indented);
  HIWAY_FUZZ_INVARIANT(pretty.ok() && *pretty == *doc,
                       "indented JSON round-trip changed the value");
}

void FuzzXml(const uint8_t* data, size_t size) {
  auto root = ParseXml(AsView(data, size));
  if (!root.ok()) return;
  // Fixpoint on the canonical serialized form: serialize -> parse ->
  // serialize must be byte-identical.
  std::string first = XmlSerialize(**root);
  auto again = ParseXml(first);
  HIWAY_FUZZ_INVARIANT(again.ok(),
                       "XML round-trip re-parse failed: " +
                           again.status().message() + " for " + first);
  std::string second = XmlSerialize(**again);
  HIWAY_FUZZ_INVARIANT(first == second,
                       "XML round-trip is not a fixpoint: '" + first +
                           "' vs '" + second + "'");
}

void FuzzDax(const uint8_t* data, size_t size) {
  auto source = DaxSource::Parse(AsView(data, size), "/dax/");
  if (!source.ok()) return;
  for (const auto& [path, sz] : (*source)->required_inputs()) {
    HIWAY_FUZZ_INVARIANT(!path.empty() && sz >= 0,
                         "DAX required input with empty path or negative "
                         "size");
  }
  CheckSourceTasks(source->get(), "DAX");
}

void FuzzGalaxy(const uint8_t* data, size_t size) {
  std::map<std::string, std::string> inputs;
  inputs["input"] = "/galaxy/input.dat";
  for (int i = 0; i < 8; ++i) {
    inputs[StrFormat("input_%d", i)] = StrFormat("/galaxy/input_%d.dat", i);
  }
  auto source = GalaxySource::Parse(AsView(data, size), inputs, "/galaxy-out");
  if (!source.ok()) return;
  CheckSourceTasks(source->get(), "Galaxy");
}

void FuzzTrace(const uint8_t* data, size_t size) {
  // Exercise both the strict path and the allow_incomplete crash-prefix
  // path (the recovery parser must be exactly as robust).
  for (bool allow_incomplete : {false, true}) {
    auto source = TraceSource::Parse(AsView(data, size), "", allow_incomplete);
    if (!source.ok()) continue;
    for (const auto& [path, sz] : (*source)->required_inputs()) {
      HIWAY_FUZZ_INVARIANT(!path.empty() && sz >= 0,
                           "trace required input with empty path or "
                           "negative size");
    }
    CheckSourceTasks(source->get(), "trace");
  }
}

void FuzzFaultSpec(const uint8_t* data, size_t size) {
  auto specs = ParseFaultSpecs(AsView(data, size));
  if (!specs.ok()) return;
  // Accepted specs must be sane: the injector schedules engine events from
  // these fields, so a non-finite time or a garbage node id (the pre-fix
  // parser turned node=1e300 into INT_MIN via an undefined float->int
  // cast) corrupts the simulation instead of failing the parse.
  for (const FaultSpec& spec : *specs) {
    HIWAY_FUZZ_INVARIANT(std::isfinite(spec.rate) && spec.rate <= 1.0,
                         "fault spec parsed a non-probability rate");
    HIWAY_FUZZ_INVARIANT(!std::isnan(spec.at) && !std::isinf(spec.at),
                         "fault spec parsed a non-finite at-time");
    HIWAY_FUZZ_INVARIANT(!std::isnan(spec.every) && !std::isinf(spec.every),
                         "fault spec parsed a non-finite every-period");
    HIWAY_FUZZ_INVARIANT(!std::isnan(spec.until) && !std::isinf(spec.until),
                         "fault spec parsed a non-finite until-time");
    HIWAY_FUZZ_INVARIANT(!std::isnan(spec.warn) && !std::isinf(spec.warn),
                         "fault spec parsed a non-finite warn-lead");
    HIWAY_FUZZ_INVARIANT(spec.node >= kInvalidNode,
                         "fault spec parsed a garbage node id");
    HIWAY_FUZZ_INVARIANT(spec.submission >= -1,
                         "fault spec parsed a garbage submission id");
  }
}

/// Clamps a numeric attribute the mutator produced to a harness budget so
/// a *valid but huge* value (e.g. cluster/workers=900000) cannot turn the
/// corpus run into a memory/time blowup. Unparseable tokens are left
/// untouched so the loud error paths stay reachable.
void ClampAttr(ChefAttributes* attrs, const std::string& key, int64_t maxv) {
  auto it = attrs->find(key);
  if (it == attrs->end()) return;
  auto parsed = ParseInt64(it->second);
  if (parsed.ok() && *parsed > maxv) {
    it->second = StrFormat("%lld", static_cast<long long>(maxv));
  }
}

void FuzzKaramel(const uint8_t* data, size_t size) {
  // Input grammar: one "key=value" attribute per line; lines without '='
  // are ignored. The attributes drive the full built-in cookbook.
  ChefAttributes attrs;
  std::string_view text = AsView(data, size);
  for (std::string_view line : StrSplit(text, '\n')) {
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) continue;
    std::string key(StrTrim(line.substr(0, eq)));
    std::string value(StrTrim(line.substr(eq + 1)));
    if (key.empty()) continue;
    attrs[key] = value;
  }
  // Hermeticity: never touch the real filesystem from the fuzzer.
  attrs["hiway/prov_backend"] = "memory";
  attrs["hiway/cache_dir"] = "";
  // Budget clamps (see ClampAttr): valid-but-huge sizes stay in range.
  ClampAttr(&attrs, "cluster/workers", 256);
  ClampAttr(&attrs, "cluster/cores", 64);
  ClampAttr(&attrs, "snv/chunks", 32);
  ClampAttr(&attrs, "snv/chunk_mb", 64);
  ClampAttr(&attrs, "rnaseq/replicates", 8);
  ClampAttr(&attrs, "rnaseq/sample_mb", 64);
  ClampAttr(&attrs, "montage/images", 32);
  ClampAttr(&attrs, "montage/image_mb", 32);
  ClampAttr(&attrs, "kmeans/points_mb", 64);
  ClampAttr(&attrs, "elastic/max_nodes", 512);

  Karamel karamel;
  for (const auto& [k, v] : attrs) karamel.SetAttribute(k, v);
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(ElasticInstallRecipe());
  karamel.AddRecipe(SnvWorkflowRecipe());
  karamel.AddRecipe(TraplineWorkflowRecipe());
  karamel.AddRecipe(MontageWorkflowRecipe());
  karamel.AddRecipe(KmeansWorkflowRecipe());
  auto deployment = karamel.Converge();
  (void)deployment;
}

void FuzzCwl(const uint8_t* data, size_t size) {
  auto source = CwlSource::Parse(AsView(data, size));
  if (!source.ok()) return;
  for (const auto& [path, sz] : (*source)->required_inputs()) {
    HIWAY_FUZZ_INVARIANT(!path.empty() && sz >= 0,
                         "CWL required input with empty path or negative "
                         "size");
  }
  CheckSourceTasks(source->get(), "CWL");
}

const std::vector<FuzzTarget>& Registry() {
  static const std::vector<FuzzTarget>* targets = new std::vector<FuzzTarget>{
      {"cuneiform", "Cuneiform-lite parser + budgeted evaluation",
       FuzzCuneiform},
      {"json", "src/common/json.cc parser + round-trip fixpoint", FuzzJson},
      {"xml", "src/common/xml.cc parser + round-trip fixpoint", FuzzXml},
      {"dax", "Pegasus DAX loader -> valid workflow", FuzzDax},
      {"galaxy", "Galaxy JSON loader -> valid workflow", FuzzGalaxy},
      {"trace", "provenance trace replay (strict + crash-prefix)",
       FuzzTrace},
      {"faultspec", "fault-injector spec grammar", FuzzFaultSpec},
      {"karamel", "karamel attribute parsing + cookbook converge",
       FuzzKaramel},
      {"cwl", "CWL-subset loader -> valid workflow", FuzzCwl},
  };
  return *targets;
}

}  // namespace

const std::vector<FuzzTarget>& AllFuzzTargets() { return Registry(); }

const FuzzTarget* FindFuzzTarget(std::string_view name) {
  for (const FuzzTarget& t : Registry()) {
    if (name == t.name) return &t;
  }
  return nullptr;
}

bool SetInvariantThrowMode(bool throw_mode) {
  bool prev = g_throw_mode;
  g_throw_mode = throw_mode;
  return prev;
}

void InvariantFailure(const char* file, int line, const std::string& msg) {
  std::string what =
      StrFormat("fuzz invariant violated at %s:%d: %s", file, line,
                msg.c_str());
  if (g_throw_mode) throw InvariantViolation(what);
  std::fprintf(stderr, "%s\n", what.c_str());
  std::abort();
}

}  // namespace fuzz
}  // namespace hiway
