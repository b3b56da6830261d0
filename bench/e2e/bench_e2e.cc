// bench_e2e: end-to-end and per-layer benchmark of the simulator on four
// paper-derived workloads (see README.md in this directory).
//
//   bench_e2e --workload W --seed S --seconds T --trace 0|1
//       One run: replays W again and again for T seconds (at least three
//       times), then, with --trace 1, once more under the stack sampler.
//       Prints one JSON line: the end-to-end metrics (--trace 0) or the
//       per-layer metrics (--trace 1).
//   bench_e2e [--reps N] [--seed S] [--seconds T] [--out FILE]
//       A set: N rounds, each one run of every workload, round-robin; the
//       last round's runs also trace. Prints a table; FILE receives the
//       JSON that --compare reads.
//   bench_e2e --compare PARENT.json CHANGE.json
//       One verdict per (workload, end-to-end metric) under the bounds of
//       ./BENCHMARK.json.
//   --quick shrinks the inputs to smoke-test size.
//
// Every replay runs in its own child process (--run-one), so each has a
// fresh allocator and its own peak RSS. Any failed workflow, missing
// output, digest that differs between replays of one seed, or traced
// replay without a usable profile is a correctness failure: the program
// names the workload and exits 1.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/e2e/metrics.h"
#include "bench/e2e/profiler.h"
#include "bench/e2e/scenarios.h"
#include "src/common/json.h"
#include "src/common/random.h"
#include "src/common/strings.h"

namespace hiway {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 50;
/// Room for a minute of samples at 1 kHz.
constexpr size_t kMaxSamples = 60000;
constexpr double kMinCoverage = 0.95;
/// A set whose host probe drifts more than this between rounds is marked
/// unstable.
constexpr double kMaxCalibSpread = 0.10;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of one run; a run replays at least kMinReps times either way.
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  int reps = 5;
  std::string out;
  bool run_one = false;
  std::vector<std::string> compare;
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

/// First and third quartile, interpolated like Python's
/// statistics.quantiles(xs, n=4) (the "exclusive" method).
std::pair<double, double> Quartiles(std::vector<double> xs) {
  if (xs.empty()) return {0.0, 0.0};
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return {xs[0], xs[0]};
  const auto n = static_cast<int64_t>(xs.size());
  auto at = [&](int64_t i) {
    int64_t j = std::clamp<int64_t>(i * (n + 1) / 4, 1, n - 1);
    int64_t delta = i * (n + 1) - j * 4;
    return (xs[j - 1] * static_cast<double>(4 - delta) +
            xs[j] * static_cast<double>(delta)) /
           4.0;
  };
  return {at(1), at(3)};
}

double Spread(const std::vector<double>& xs) {
  double median = Median(xs);
  auto [q1, q3] = Quartiles(xs);
  return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
}

/// How a run turns its untraced replays into one value per end-to-end
/// metric. Other tenants of a shared host only ever add time, so the
/// fastest replay is the least disturbed one: `run_wall_s` is the
/// minimum. On a shared 4-vCPU VM the per-run minimum moved about half as
/// much from run to run as the per-run median. Every other metric is the
/// median.
double Reduce(const std::string& name, const std::vector<double>& xs) {
  if (name == "run_wall_s") return *std::min_element(xs.begin(), xs.end());
  return Median(xs);
}

volatile uint64_t g_probe_sink = 0;

/// Milliseconds for a fixed probe: a seeded sort of 4 MiB of keys (about
/// 40 ms). A host that slows down for a while (shared machines do, by up
/// to 2x) slows the probe too, so a drifting host shows beside the
/// results. A dependent walk over 16-64 MiB was tried as well: on a
/// shared VM it jittered by 12% between back-to-back runs, more than the
/// replays did, and so flagged quiet hosts as drifting.
double ProbeMs() {
  Clock::time_point start = Clock::now();
  Rng rng(20170321);
  std::vector<uint64_t> keys(1 << 19);
  for (uint64_t& key : keys) key = rng.NextUint64();
  std::sort(keys.begin(), keys.end());
  g_probe_sink = g_probe_sink + keys[keys.size() / 2];
  return SecondsSince(start) * 1e3;
}

Result<Json> ReadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto json = Json::Parse(text);
  if (!json.ok()) return json.status().WithContext(path);
  return json;
}

/// One replay as the parent saw it.
struct Rep {
  Json result;  // the child's JSON line
  double calib_ms = 0.0;

  double Value(const std::string& name) const {
    if (name == "host.calib_ms") return calib_ms;
    const Json* values = result.Find("values");
    return values != nullptr ? values->GetNumber(name) : 0.0;
  }
};

/// Replays `workload` in a child process and collects its JSON line.
Result<Rep> RunChild(const Options& o, const std::string& workload,
                     bool trace) {
  std::vector<std::string> args = {
      "bench_e2e", "--run-one", workload,
      "--seed",    StrFormat("%llu", static_cast<unsigned long long>(o.seed)),
      "--trace",   trace ? "1" : "0"};
  if (o.quick) args.push_back("--quick");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) return Status::IoError("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::IoError("fork failed");
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string output;
  char buf[4096];
  for (;;) {
    ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      output.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::RuntimeError(StrFormat(
        "%s: %s replay with seed %llu failed", workload.c_str(),
        trace ? "traced" : "untraced",
        static_cast<unsigned long long>(o.seed)));
  }
  while (!output.empty() && output.back() == '\n') output.pop_back();
  size_t nl = output.rfind('\n');
  HIWAY_ASSIGN_OR_RETURN(
      Json result,
      Json::Parse(nl == std::string::npos ? output : output.substr(nl + 1)));
  Rep rep;
  rep.result = std::move(result);
  return rep;
}

/// One run of one workload: its replays, checked and reduced.
struct Summary {
  std::string workload;
  std::string digest;
  int workflows = 0;
  /// Replays, the traced one included.
  int replays = 0;
  /// One value per end-to-end metric (Reduce()).
  std::map<std::string, double> end_to_end;
  /// Per-layer metrics: the counters' medians, then, in a traced run, the
  /// layer profile.
  std::map<std::string, double> per_layer;
};

/// Checks that the replays agree and reduces them.
Result<Summary> Summarize(const std::string& workload,
                          const std::vector<Rep>& reps,
                          const std::optional<Rep>& traced) {
  Summary s;
  s.workload = workload;
  s.digest = reps.front().result.GetString("digest");
  s.workflows = static_cast<int>(reps.front().result.GetInt("workflows"));
  s.replays = static_cast<int>(reps.size()) + (traced ? 1 : 0);
  std::map<std::string, std::vector<double>> samples;
  for (const Rep& rep : reps) {
    if (rep.result.GetString("digest") != s.digest) {
      return Status::RuntimeError(StrFormat(
          "%s: output digest differs between replays (%s vs %s)",
          workload.c_str(), s.digest.c_str(),
          rep.result.GetString("digest").c_str()));
    }
    if (rep.Value("ok_frac") != 1.0) {
      return Status::RuntimeError(workload + ": a workflow did not succeed");
    }
    for (const MetricDef& m : EndToEndMetrics()) {
      samples[m.name].push_back(rep.Value(m.name));
    }
    for (const MetricDef& m : LayerCountMetrics()) {
      samples[m.name].push_back(rep.Value(m.name));
    }
  }
  for (const MetricDef& m : EndToEndMetrics()) {
    s.end_to_end[m.name] = Reduce(m.name, samples[m.name]);
  }
  for (const MetricDef& m : LayerCountMetrics()) {
    s.per_layer[m.name] = Median(samples[m.name]);
  }
  if (!traced) return s;

  if (traced->result.GetString("digest") != s.digest ||
      traced->Value("sim_makespan_s") != reps.front().Value("sim_makespan_s")) {
    return Status::RuntimeError(
        workload + ": the traced replay's outputs differ from the untraced "
                   "ones (tracing perturbed the schedule)");
  }
  const Json* layers = traced->result.Find("layers");
  double total = 0.0;
  for (const std::string& layer : Layers()) {
    total += layers != nullptr ? layers->GetNumber(layer) : 0.0;
  }
  if (total == 0.0) {
    return Status::RuntimeError(workload +
                                ": the traced replay recorded no samples");
  }
  double traced_wall = traced->Value("run_wall_s");
  for (const std::string& layer : Layers()) {
    double share = layers->GetNumber(layer) / total;
    s.per_layer[layer + ".share"] = share;
    s.per_layer[layer + ".self_s"] = share * traced_wall;
  }
  double coverage = 1.0 - s.per_layer["other.share"];
  if (coverage < kMinCoverage) {
    return Status::RuntimeError(StrFormat(
        "%s: only %.1f%% of samples fall in a named layer (want >= %.0f%%)",
        workload.c_str(), coverage * 100.0, kMinCoverage * 100.0));
  }
  s.per_layer["trace.samples"] = total;
  s.per_layer["trace.coverage"] = coverage;
  s.per_layer["trace.overhead_frac"] =
      traced_wall / s.end_to_end["run_wall_s"] - 1.0;
  return s;
}

/// One run: replays `workload` for o.seconds (at least kMinReps times),
/// then once more under the stack sampler when `trace`.
Result<Summary> MeasureRun(const Options& o, const std::string& workload,
                           bool trace) {
  Clock::time_point start = Clock::now();
  std::vector<Rep> reps;
  while (reps.size() < kMinReps ||
         (SecondsSince(start) < o.seconds && reps.size() < kMaxReps)) {
    double calib_ms = ProbeMs();
    HIWAY_ASSIGN_OR_RETURN(Rep rep, RunChild(o, workload, false));
    rep.calib_ms = calib_ms;
    reps.push_back(std::move(rep));
  }
  std::optional<Rep> traced;
  if (trace) {
    HIWAY_ASSIGN_OR_RETURN(traced, RunChild(o, workload, true));
  }
  return Summarize(workload, reps, traced);
}

/// --workload: one run of one workload.
int Measure(const Options& o) {
  auto fail = [](const Status& st) {
    std::fprintf(stderr, "bench_e2e: %s\n", st.ToString().c_str());
    return 1;
  };
  // When run from the repository root, first check that BENCHMARK.json
  // lists exactly the metrics printed below.
  if (std::ifstream("BENCHMARK.json")) {
    auto bench = ReadJson("BENCHMARK.json");
    if (!bench.ok()) return fail(bench.status());
    Status st = CheckBenchmarkJson(*bench);
    if (!st.ok()) return fail(st);
  }
  auto summary = MeasureRun(o, o.workload, o.trace);
  if (!summary.ok()) return fail(summary.status());
  std::fprintf(stderr, "bench_e2e: %s seed %llu: %d replays, digest %s\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               summary->replays, summary->digest.c_str());

  Json metrics = Json::MakeObject();
  auto add = [&](const MetricDef& m, double value) {
    Json entry = Json::MakeObject();
    entry.Set("value", value);
    entry.Set("unit", m.unit);
    metrics.Set(m.name, std::move(entry));
  };
  if (o.trace) {
    for (const MetricDef& m : PerLayerMetrics()) {
      add(m, summary->per_layer[m.name]);
    }
  } else {
    for (const MetricDef& m : EndToEndMetrics()) {
      add(m, summary->end_to_end[m.name]);
    }
  }
  Json out = Json::MakeObject();
  out.Set("correct", true);
  out.Set("attempted", static_cast<int64_t>(summary->workflows) *
                           static_cast<int64_t>(summary->replays));
  out.Set("failed", 0);
  out.Set("metrics", std::move(metrics));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

Json QuantileJson(const std::vector<double>& xs, const std::string& unit) {
  auto [q1, q3] = Quartiles(xs);
  Json values = Json::MakeArray();
  for (double x : xs) values.Append(x);
  Json entry = Json::MakeObject();
  entry.Set("unit", unit);
  entry.Set("median", Median(xs));
  entry.Set("q1", q1);
  entry.Set("q3", q3);
  entry.Set("values", std::move(values));
  return entry;
}

std::string Today() {
  std::time_t now = std::time(nullptr);
  char buf[16];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d", std::gmtime(&now));
  return buf;
}

/// Default mode: a set of o.reps rounds, each one run per workload.
int RunSet(const Options& o) {
  const std::vector<std::string>& names = WorkloadNames();
  std::map<std::string, std::vector<Summary>> runs;
  std::vector<double> round_calib;
  auto fail = [](const Status& st) {
    std::fprintf(stderr, "bench_e2e: %s\n", st.ToString().c_str());
    return 1;
  };
  // Round-robin, so that a slow spell of the host lands on every
  // workload rather than on one. The last round's runs also trace.
  for (int r = 0; r < o.reps; ++r) {
    std::vector<double> calib;
    for (const std::string& name : names) {
      auto s = MeasureRun(o, name, r + 1 == o.reps);
      if (!s.ok()) return fail(s.status());
      if (!runs[name].empty() && runs[name].front().digest != s->digest) {
        return fail(Status::RuntimeError(StrFormat(
            "%s: output digest differs between runs (%s vs %s)",
            name.c_str(), runs[name].front().digest.c_str(),
            s->digest.c_str())));
      }
      calib.push_back(s->per_layer.at("host.calib_ms"));
      runs[name].push_back(std::move(*s));
    }
    round_calib.push_back(Median(calib));
  }
  // One value per run, as BENCHMARK.json's command prints them.
  auto values = [&](const std::string& name, const std::string& metric) {
    std::vector<double> xs;
    for (const Summary& s : runs.at(name)) xs.push_back(s.end_to_end.at(metric));
    return xs;
  };
  // Drift, not the probe's own jitter: compare the rounds' medians.
  double calib_spread = Spread(round_calib);
  bool stable = calib_spread <= kMaxCalibSpread;

  std::printf("bench_e2e %s: %d run(s) of %g s per workload, the last one "
              "traced, seed %llu, nproc %ld, %s size\n",
              Today().c_str(), o.reps, o.seconds,
              static_cast<unsigned long long>(o.seed),
              sysconf(_SC_NPROCESSORS_ONLN), o.quick ? "quick" : "bench");
  std::printf("host probe %.1f ms median, drift %.1f%% between rounds: %s\n\n",
              Median(round_calib), calib_spread * 100.0,
              stable ? "stable" : "UNSTABLE (host drifting; rerun)");
  std::printf("%-17s %-17s %13s %13s %13s %6s\n", "workload", "metric",
              "median", "q1", "q3", "unit");
  for (const std::string& name : names) {
    for (const MetricDef& m : EndToEndMetrics()) {
      std::vector<double> xs = values(name, m.name);
      auto [q1, q3] = Quartiles(xs);
      std::printf("%-17s %-17s %13.6g %13.6g %13.6g %6s\n", name.c_str(),
                  m.name.c_str(), Median(xs), q1, q3, m.unit.c_str());
    }
    // Not gated: a scheduling change that shortens the virtual makespan
    // would read as a regression here.
    std::printf("%-17s %-17s %13.6g %13s %13s %6s\n", name.c_str(),
                "wall_s_per_sim_h",
                Median(values(name, "run_wall_s")) * 3600.0 /
                    Median(values(name, "sim_makespan_s")),
                "", "", "s/h");
    std::printf("%-17s %-17s %13s\n", name.c_str(), "digest",
                runs.at(name).front().digest.c_str());
  }
  std::printf("\nlayer share of the traced replay (self time, innermost "
              "layer frame)\n%-16s", "layer");
  for (const std::string& name : names) std::printf(" %17s", name.c_str());
  std::printf("\n");
  auto traced_layers = [&](const std::string& name) -> const auto& {
    return runs.at(name).back().per_layer;
  };
  for (const std::string& layer : Layers()) {
    std::printf("%-16s", layer.c_str());
    for (const std::string& name : names) {
      std::printf(" %16.1f%%", traced_layers(name).at(layer + ".share") * 100.0);
    }
    std::printf("\n");
  }
  for (const char* metric : {"trace.samples", "trace.coverage",
                             "trace.overhead_frac"}) {
    std::printf("%-16s", metric);
    for (const std::string& name : names) {
      std::printf(" %17.3f", traced_layers(name).at(metric));
    }
    std::printf("\n");
  }

  if (!o.out.empty()) {
    Json set = Json::MakeObject();
    set.Set("bench", "bench_e2e");
    set.Set("date", Today());
    set.Set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    set.Set("seed", static_cast<uint64_t>(o.seed));
    set.Set("reps", o.reps);
    set.Set("seconds", o.seconds);
    set.Set("quick", o.quick);
    set.Set("stable", stable);
    set.Set("calib_spread", calib_spread);
    Json workloads = Json::MakeObject();
    for (const std::string& name : names) {
      Json w = Json::MakeObject();
      w.Set("digest", runs.at(name).front().digest);
      w.Set("workflows", runs.at(name).front().workflows);
      Json e2e = Json::MakeObject();
      for (const MetricDef& m : EndToEndMetrics()) {
        e2e.Set(m.name, QuantileJson(values(name, m.name), m.unit));
      }
      w.Set("end_to_end", std::move(e2e));
      Json layer = Json::MakeObject();
      for (const MetricDef& m : PerLayerMetrics()) {
        layer.Set(m.name, traced_layers(name).at(m.name));
      }
      w.Set("per_layer", std::move(layer));
      workloads.Set(name, std::move(w));
    }
    set.Set("workloads", std::move(workloads));
    std::ofstream file(o.out);
    file << set.Dump(2) << "\n";
    if (!file) return fail(Status::IoError("cannot write " + o.out));
  }
  return 0;
}

std::vector<double> Values(const Json* entry) {
  std::vector<double> out;
  const Json* values = entry != nullptr ? entry->Find("values") : nullptr;
  if (values == nullptr || !values->is_array()) return out;
  for (const Json& v : values->as_array()) out.push_back(v.as_number());
  return out;
}

/// improved / unchanged / regressed under `bound` (a share of the
/// parent's median); unresolved when the parent's own quartile spread is
/// wider than the bound, unless every change value beats every parent
/// value.
std::string Verdict(const std::vector<double>& parent,
                    const std::vector<double>& change, double bound,
                    bool higher_is_better) {
  if (parent.empty() || change.empty()) return "missing";
  double pm = Median(parent);
  double cm = Median(change);
  double sign = higher_is_better ? -1.0 : 1.0;
  double worse = pm != 0.0 ? sign * (cm - pm) / std::fabs(pm) : 0.0;
  if (Spread(parent) > bound) {
    auto [pmin, pmax] = std::minmax_element(parent.begin(), parent.end());
    auto [cmin, cmax] = std::minmax_element(change.begin(), change.end());
    bool all_better = higher_is_better ? *cmin > *pmax : *cmax < *pmin;
    return all_better ? "improved" : "unresolved";
  }
  if (worse > bound) return "regressed";
  if (-worse > bound) return "improved";
  return "unchanged";
}

int Compare(const Options& o) {
  auto fail = [](const Status& st) {
    std::fprintf(stderr, "bench_e2e: %s\n", st.ToString().c_str());
    return 2;
  };
  auto bench = ReadJson("BENCHMARK.json");
  if (!bench.ok()) return fail(bench.status());
  auto parent = ReadJson(o.compare[0]);
  if (!parent.ok()) return fail(parent.status());
  auto change = ReadJson(o.compare[1]);
  if (!change.ok()) return fail(change.status());
  const Json* metrics = bench->Find("end_to_end");
  const Json* pw = parent->Find("workloads");
  const Json* cw = change->Find("workloads");
  if (metrics == nullptr || !metrics->is_array() || pw == nullptr ||
      cw == nullptr) {
    return fail(Status::InvalidArgument(
        "BENCHMARK.json needs end_to_end and both sets need workloads"));
  }
  bool bad = false;
  for (const auto* set : {&*parent, &*change}) {
    if (!set->GetBool("stable", false)) {
      std::printf("warning: %s set is marked unstable (host drifted while "
                  "it ran)\n",
                  set == &*parent ? "parent" : "change");
    }
  }
  std::printf("%-17s %-17s %12s %25s %12s %25s %8s  %s\n", "workload",
              "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "delta",
              "verdict");
  for (const auto& [workload, p] : pw->as_object()) {
    const Json* c = cw->Find(workload);
    if (c == nullptr) {
      std::printf("%-17s missing from the change set\n", workload.c_str());
      bad = true;
      continue;
    }
    for (const Json& m : metrics->as_array()) {
      std::string name = m.GetString("name");
      const Json* pe = p.Find("end_to_end");
      const Json* ce = c->Find("end_to_end");
      std::vector<double> pv = Values(pe ? pe->Find(name) : nullptr);
      std::vector<double> cv = Values(ce ? ce->Find(name) : nullptr);
      std::string verdict = Verdict(pv, cv, m.GetNumber("bound"),
                                    m.GetString("better") == "higher");
      bad = bad || verdict == "regressed" || verdict == "missing";
      auto [pq1, pq3] = Quartiles(pv);
      auto [cq1, cq3] = Quartiles(cv);
      double pm = Median(pv);
      double delta = pm != 0.0 ? (Median(cv) - pm) / std::fabs(pm) : 0.0;
      std::printf("%-17s %-17s %12.6g [%11.6g, %11.6g] %12.6g [%11.6g, "
                  "%11.6g] %+7.1f%%  %s\n",
                  workload.c_str(), name.c_str(), pm, pq1, pq3, Median(cv),
                  cq1, cq3, delta * 100.0, verdict.c_str());
    }
    std::string pd = p.GetString("digest");
    std::string cd = c->GetString("digest");
    if (pd != cd) {
      std::printf("%-17s digest differs: %s -> %s (outputs changed)\n",
                  workload.c_str(), pd.c_str(), cd.c_str());
      bad = true;
    }
  }
  return bad ? 1 : 0;
}

/// Peak resident set of this process image, in MiB. VmHWM restarts at
/// exec; the rusage maximum would also count the forking parent.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// --run-one: one replay in this process; prints one JSON line.
int RunOne(const Options& o) {
  std::unique_ptr<StackSampler> sampler;
  if (o.trace) sampler = std::make_unique<StackSampler>(kMaxSamples);
  auto replay = RunWorkload(o.workload, o.seed, o.quick, sampler.get());
  if (!replay.ok()) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", o.workload.c_str(),
                 replay.status().ToString().c_str());
    return 1;
  }
  Json out = Json::MakeObject();
  out.Set("digest", replay->digest);
  out.Set("workflows", replay->workflows);
  Json values = Json::MakeObject();
  for (const auto& [name, value] : replay->values) values.Set(name, value);
  values.Set("peak_rss_mb", PeakRssMb());
  out.Set("values", std::move(values));
  if (sampler != nullptr) {
    auto symbols = Symbolizer::ForThisProcess();
    if (!symbols.ok()) {
      std::fprintf(stderr, "bench_e2e: %s\n",
                   symbols.status().ToString().c_str());
      return 1;
    }
    Json layers = Json::MakeObject();
    for (const auto& [layer, count] : sampler->Attribute(**symbols)) {
      layers.Set(layer, count);
    }
    out.Set("layers", std::move(layers));
  }
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_e2e --workload W --seed S --seconds T --trace 0|1\n"
      "       bench_e2e [--reps N] [--seed S] [--seconds T] [--out FILE]\n"
      "       bench_e2e --compare PARENT.json CHANGE.json\n"
      "  --quick shrinks the inputs; workloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

Result<Options> ParseArgs(int argc, char** argv) {
  Options o;
  bool have_reps = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> Result<std::string> {
      if (i + 1 >= argc) return Status::InvalidArgument(arg + " needs a value");
      return std::string(argv[++i]);
    };
    auto number = [&]() -> Result<int64_t> {
      HIWAY_ASSIGN_OR_RETURN(std::string v, value());
      HIWAY_ASSIGN_OR_RETURN(int64_t n, ParseInt64(v));
      if (n < 0) return Status::InvalidArgument(arg + " must not be negative");
      return n;
    };
    if (arg == "--workload" || arg == "--run-one") {
      HIWAY_ASSIGN_OR_RETURN(o.workload, value());
      o.run_one = arg == "--run-one";
    } else if (arg == "--seed") {
      HIWAY_ASSIGN_OR_RETURN(int64_t n, number());
      o.seed = static_cast<uint64_t>(n);
    } else if (arg == "--seconds") {
      HIWAY_ASSIGN_OR_RETURN(std::string v, value());
      HIWAY_ASSIGN_OR_RETURN(o.seconds, ParseDouble(v));
      have_seconds = true;
    } else if (arg == "--trace") {
      HIWAY_ASSIGN_OR_RETURN(int64_t n, number());
      o.trace = n != 0;
    } else if (arg == "--reps") {
      HIWAY_ASSIGN_OR_RETURN(int64_t n, number());
      if (n < 1 || n > 1000) return Status::InvalidArgument("--reps: 1..1000");
      o.reps = static_cast<int>(n);
      have_reps = true;
    } else if (arg == "--out") {
      HIWAY_ASSIGN_OR_RETURN(o.out, value());
    } else if (arg == "--compare") {
      HIWAY_ASSIGN_OR_RETURN(std::string a, value());
      HIWAY_ASSIGN_OR_RETURN(std::string b, value());
      o.compare = {a, b};
    } else if (arg == "--quick") {
      o.quick = true;
    } else {
      return Status::InvalidArgument("unknown argument " + arg);
    }
  }
  // A quick set is a smoke test: one round of kMinReps replays each.
  if (o.quick && !have_reps) o.reps = 1;
  if (o.quick && !have_seconds) o.seconds = 0.0;
  if (!o.workload.empty() &&
      std::find(WorkloadNames().begin(), WorkloadNames().end(), o.workload) ==
          WorkloadNames().end()) {
    return Status::InvalidArgument("unknown workload " + o.workload);
  }
  return o;
}

int Main(int argc, char** argv) {
  auto options = ParseArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n",
                 options.status().ToString().c_str());
    return Usage();
  }
  if (!options->compare.empty()) return Compare(*options);
  if (options->run_one) return RunOne(*options);
  if (!options->workload.empty()) return Measure(*options);
  return RunSet(*options);
}

}  // namespace
}  // namespace e2e
}  // namespace hiway

int main(int argc, char** argv) { return hiway::e2e::Main(argc, argv); }
