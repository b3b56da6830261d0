// Micro-benchmarks (google-benchmark) for the hot paths of the simulator
// and the AM: event-queue throughput, fair-share rebalancing, JSON
// parsing, the Galaxy and DAX front-ends, HDFS locality queries,
// scheduler decisions, and the Cuneiform interpreter (the initial sweep
// and the completion loop).

#include <benchmark/benchmark.h>

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/strings.h"
#include "src/core/scheduler.h"
#include "src/hdfs/dfs.h"
#include "src/lang/cuneiform.h"
#include "src/lang/dax_source.h"
#include "src/lang/galaxy_source.h"
#include "src/sim/engine.h"
#include "src/sim/flow.h"
#include "src/workloads/workloads.h"

namespace hiway {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int64_t events = state.range(0);
  for (auto _ : state) {
    SimEngine engine;
    int64_t fired = 0;
    for (int64_t i = 0; i < events; ++i) {
      engine.ScheduleAt(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    engine.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

// `flows` permanent background flows, each crossing two of 50 resources,
// which couples all of them into one component of the flow–resource
// graph. Returns the 50 resources.
std::vector<ResourceId> AddCoupledBackground(FlowNetwork* net,
                                             int64_t flows) {
  std::vector<ResourceId> resources;
  for (int i = 0; i < 50; ++i) {
    resources.push_back(net->AddResource("r", 100.0));
  }
  for (int64_t i = 0; i < flows; ++i) {
    FlowSpec spec;
    spec.resources = {resources[static_cast<size_t>(i) % resources.size()],
                      resources[(static_cast<size_t>(i) + 7) %
                                resources.size()]};
    spec.demand = kInfiniteDemand;
    net->StartFlow(std::move(spec));
  }
  return resources;
}

// Start + cancel of one churn flow against `flows` coupled background
// flows, each change followed by an engine step that runs its instant's
// solve. The churn flow either has a resource of its own, so each solve
// covers only its one-flow component (the common case: CPU bursts and
// local disk I/O), or also crosses a background resource, so each solve
// covers every background flow (the worst case: a transfer through a
// saturated switch).
void FlowChurn(benchmark::State& state, bool coupled) {
  SimEngine engine;
  FlowNetwork net(&engine);
  std::vector<ResourceId> resources =
      AddCoupledBackground(&net, state.range(0));
  ResourceId churn = net.AddResource("churn", 10.0);
  std::vector<ResourceId> path = {churn};
  if (coupled) path.push_back(resources[0]);
  engine.Run();
  for (auto _ : state) {
    FlowId id = net.StartFlow({path, kInfiniteDemand, kNoRateCap, 1.0, {}});
    engine.Run();
    net.CancelFlow(id);
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations() * 2);  // two solves each
}

void BM_FlowRebalance(benchmark::State& state) { FlowChurn(state, false); }
BENCHMARK(BM_FlowRebalance)->Arg(100)->Arg(600);

void BM_FlowRebalanceCoupled(benchmark::State& state) {
  FlowChurn(state, true);
}
BENCHMARK(BM_FlowRebalanceCoupled)->Arg(100)->Arg(600);

// A burst of k transfers starts in one instant through the coupled
// background resources (600 flows), then one engine step; the burst is
// then cancelled the same way. One solve per instant makes that two
// solves per iteration where solving on every change made 2k.
void BM_FlowStartBurst(benchmark::State& state) {
  SimEngine engine;
  FlowNetwork net(&engine);
  std::vector<ResourceId> resources = AddCoupledBackground(&net, 600);
  ResourceId churn = net.AddResource("churn", 10.0);
  std::vector<FlowId> burst(static_cast<size_t>(state.range(0)));
  engine.Run();
  for (auto _ : state) {
    for (size_t i = 0; i < burst.size(); ++i) {
      burst[i] = net.StartFlow({{churn, resources[i % resources.size()]},
                                kInfiniteDemand, kNoRateCap, 1.0, {}});
    }
    engine.Run();
    for (FlowId id : burst) net.CancelFlow(id);
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_FlowStartBurst)->Arg(8)->Arg(64);

void BM_JsonParseTrapline(benchmark::State& state) {
  GeneratedWorkload workload = MakeTraplineWorkflow(RnaSeqWorkloadOptions{});
  for (auto _ : state) {
    auto doc = Json::Parse(workload.document);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(workload.document.size()));
}
BENCHMARK(BM_JsonParseTrapline);

// The two front-ends on the documents `service-reuse` submits: TRAPLINE
// with 3 replicates per condition (Galaxy JSON) and a 6-image Montage
// (Pegasus DAX).
void BM_GalaxyParseTrapline(benchmark::State& state) {
  RnaSeqWorkloadOptions options;
  options.replicates_per_condition = 3;
  GeneratedWorkload workload = MakeTraplineWorkflow(options);
  std::map<std::string, std::string> inputs;
  for (const auto& [name, path] : TraplineInputBindings(options)) {
    inputs[name] = path;
  }
  for (auto _ : state) {
    auto source = GalaxySource::Parse(workload.document, inputs, "/out");
    benchmark::DoNotOptimize(source);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(workload.document.size()));
}
BENCHMARK(BM_GalaxyParseTrapline);

void BM_DaxParseMontage(benchmark::State& state) {
  MontageWorkloadOptions options;
  options.num_images = 6;
  GeneratedWorkload workload = MakeMontageWorkflow(options);
  for (auto _ : state) {
    auto source = DaxSource::Parse(workload.document, "/sky/");
    benchmark::DoNotOptimize(source);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(workload.document.size()));
}
BENCHMARK(BM_DaxParseMontage);

void BM_DfsLocalityQuery(benchmark::State& state) {
  SimEngine engine;
  FlowNetwork net(&engine);
  NodeSpec node;
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(24, node, 1000.0));
  Dfs dfs(&cluster, DfsOptions{});
  std::vector<std::string> paths;
  for (int i = 0; i < 512; ++i) {
    std::string path = StrFormat("/f%04d", i);
    (void)dfs.IngestFile(path, 128 << 20);
    paths.push_back(std::move(path));
  }
  size_t i = 0;
  for (auto _ : state) {
    int64_t local = dfs.LocalBytes(paths[i % paths.size()],
                                   static_cast<NodeId>(i % 24));
    benchmark::DoNotOptimize(local);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DfsLocalityQuery);

// The same query by interned FileId: what the data-aware index issues for
// each input of a task whose bytes changed on one node.
void BM_DfsLocalityQueryById(benchmark::State& state) {
  SimEngine engine;
  FlowNetwork net(&engine);
  NodeSpec node;
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(24, node, 1000.0));
  Dfs dfs(&cluster, DfsOptions{});
  std::vector<FileId> ids;
  for (int i = 0; i < 512; ++i) {
    std::string path = StrFormat("/f%04d", i);
    (void)dfs.IngestFile(path, 128 << 20);
    ids.push_back(dfs.Intern(path));
  }
  size_t i = 0;
  for (auto _ : state) {
    int64_t local =
        dfs.LocalBytesOf(ids[i % ids.size()], static_cast<NodeId>(i % 24));
    benchmark::DoNotOptimize(local);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DfsLocalityQueryById);

// One queue's life under the data-aware policy: N ready tasks enqueued
// (inputs interned beforehand, as the AM does at admission), then every
// one picked by grants rotating over 24 nodes. Timing enqueue and the
// whole drain charges the index for the work it moves out of the pick.
// Items are picks.
void BM_DataAwareSelect(benchmark::State& state) {
  const int64_t queued = state.range(0);
  SimEngine engine;
  FlowNetwork net(&engine);
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(24, NodeSpec{}, 1000.0));
  Dfs dfs(&cluster, DfsOptions{});  // replication 3
  std::vector<TaskSpec> tasks;
  std::vector<std::vector<FileId>> inputs;
  for (int64_t i = 0; i < queued; ++i) {
    std::string path = StrFormat("/in%04lld", static_cast<long long>(i));
    (void)dfs.IngestFile(path, 64 << 20);
    TaskSpec t;
    t.id = i + 1;
    t.signature = "t";
    t.input_files = {path};
    tasks.push_back(std::move(t));
    inputs.push_back({dfs.Intern(path)});
  }
  for (auto _ : state) {
    DataAwareScheduler scheduler(&dfs);
    for (int64_t i = 0; i < queued; ++i) {
      scheduler.EnqueueReadyInterned(tasks[static_cast<size_t>(i)],
                                     inputs[static_cast<size_t>(i)]);
    }
    for (int64_t i = 0; i < queued; ++i) {
      auto picked = scheduler.SelectTask(static_cast<NodeId>(i % 24));
      benchmark::DoNotOptimize(picked);
    }
  }
  state.SetItemsProcessed(state.iterations() * queued);
}
BENCHMARK(BM_DataAwareSelect)->Arg(64)->Arg(512);

void BM_CuneiformSweep(benchmark::State& state) {
  SnvWorkloadOptions options;
  options.num_chunks = static_cast<int>(state.range(0));
  GeneratedWorkload workload = MakeSnvCallingWorkflow(options);
  for (auto _ : state) {
    auto source = CuneiformSource::Parse(workload.document);
    auto tasks = (*source)->Init();
    benchmark::DoNotOptimize(tasks);
  }
  state.SetItemsProcessed(state.iterations() * options.num_chunks);
}
BENCHMARK(BM_CuneiformSweep)->Arg(64)->Arg(512);

// Every completion of the SNV pipeline (4 tasks per chunk), completed in
// discovery order; only the OnTaskCompleted calls are timed, one item per
// completion. With incremental sweeps the time per completion stays
// roughly flat as the chunk count grows.
void BM_CuneiformCompletions(benchmark::State& state) {
  SnvWorkloadOptions options;
  options.num_chunks = static_cast<int>(state.range(0));
  GeneratedWorkload workload = MakeSnvCallingWorkflow(options);
  int64_t completions = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto source = CuneiformSource::Parse(workload.document);
    auto initial = (*source)->Init();
    std::deque<TaskSpec> queue(initial->begin(), initial->end());
    state.ResumeTiming();
    while (!queue.empty()) {
      TaskSpec spec = std::move(queue.front());
      queue.pop_front();
      TaskResult result;
      result.id = spec.id;
      result.signature = spec.signature;
      for (const OutputSpec& out : spec.outputs) {
        result.produced_files.emplace_back(out.path, 64);
      }
      auto more = (*source)->OnTaskCompleted(result);
      benchmark::DoNotOptimize(more);
      queue.insert(queue.end(), more->begin(), more->end());
      ++completions;
    }
    state.PauseTiming();
    source->reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(completions);
}
BENCHMARK(BM_CuneiformCompletions)
    ->Arg(288)
    ->Arg(1152)
    ->Unit(benchmark::kMillisecond);

void BM_HeftScheduleBuild(benchmark::State& state) {
  const int tasks_n = static_cast<int>(state.range(0));
  RuntimeEstimator estimator;
  for (int n = 0; n < 24; ++n) estimator.Observe("t", n, 10.0 + n);
  // Binary-tree DAG: task id reads the file its parent id / 2 writes.
  auto file = [](TaskId id) {
    return StrFormat("/tree/%lld", static_cast<long long>(id));
  };
  std::vector<TaskSpec> tasks;
  for (TaskId id = 1; id <= tasks_n; ++id) {
    TaskSpec t;
    t.id = id;
    t.signature = "t";
    if (id > 1) t.input_files.push_back(file(id / 2));
    t.outputs.push_back(OutputSpec{"out", file(id), {}, false});
    tasks.push_back(std::move(t));
  }
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < 24; ++n) nodes.push_back(n);
  for (auto _ : state) {
    HeftScheduler scheduler(&estimator);
    Status st = scheduler.BuildStaticSchedule(tasks, TaskGraph(tasks), nodes);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations() * tasks_n);
}
BENCHMARK(BM_HeftScheduleBuild)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace hiway

// Custom main: tolerate the harness-wide "--quick" flag (google-benchmark
// rejects flags it does not know).
int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") continue;
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
