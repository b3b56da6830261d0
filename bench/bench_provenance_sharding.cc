// Provenance sharding benchmark: what the per-submission split buys.
//
//   append throughput — 8 concurrent writers (one per simulated AM)
//                       running the adaptive-scheduler loop: record a
//                       task end, then look up the latest runtime of a
//                       recently observed signature to place the next
//                       task ("always use the latest observed runtime").
//                       Lookups follow the merge-on-read discipline —
//                       readers snapshot, they never pin a writer's lock
//                       across a scan. Single store: every AM funnels
//                       through one mutex and every lookup snapshots the
//                       combined log of all 8 runs. Sharded: each AM
//                       appends to its own shard and lookups through a
//                       run-scoped view snapshot only that shard. The
//                       acceptance bar is >= 2x.
//   query behaviour   — after the standard 8-workflow service burst,
//                       merge-on-read statistics queries (LatestRuntime
//                       over every observed (signature, node) pair,
//                       RuntimeObservations — the history scans in
//                       tests/oracles/provenance_oracle.h — full merge +
//                       trace export) timed against the view, with every
//                       answer checked for equivalence against a
//                       brute-force scan of the seq-ordered single-store
//                       sequence.
//
// `--json` emits one JSON object for CI artifact collection; `--quick`
// trims the burst input sizes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/client.h"
#include "src/core/metrics.h"
#include "src/core/provenance.h"
#include "src/service/workflow_service.h"
#include "src/workloads/workloads.h"
#include "tests/oracles/provenance_oracle.h"

namespace hiway {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

ProvenanceEvent MakeTaskEnd(int writer, int i) {
  ProvenanceEvent ev;
  ev.type = ProvenanceEventType::kTaskEnd;
  ev.timestamp = static_cast<double>(i);
  ev.task_id = i;
  ev.signature = StrFormat("sig-%d-%d", writer, i % 16);
  ev.command = "bowtie2 -x ref reads.fq";
  ev.node = writer;
  ev.node_name = StrFormat("node-%03d", writer);
  ev.duration = 1.0 + static_cast<double>(i % 7);
  ev.success = true;
  return ev;
}

// ---- append throughput ----------------------------------------------------

constexpr int kWriters = 8;   // the 8-concurrent-AM burst
constexpr int kLookback = 8;  // lookup targets a task ~8 records back

struct AppendResult {
  double single_eps = 0.0;   // events/s, one mutex-guarded store
  double sharded_eps = 0.0;  // events/s, one shard per writer
  double speedup = 0.0;
  size_t events = 0;
};

AppendResult MeasureAppendThroughput(bool quick) {
  const int per_writer = quick ? 400 : 800;
  AppendResult out;
  out.events = static_cast<size_t>(kWriters) * per_writer;

  // Baseline: the pre-sharding architecture — every AM funnels through
  // ONE store behind ONE lock, and every scheduler lookup snapshots the
  // combined log of all concurrent runs.
  {
    InMemoryProvenanceStore store;
    std::mutex mu;
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&store, &mu, w, per_writer] {
        for (int i = 0; i < per_writer; ++i) {
          ProvenanceEvent ev = MakeTaskEnd(w, i);
          ev.run_id = "single-run";
          {
            std::lock_guard<std::mutex> lock(mu);
            store.Append(ev);
          }
          if (i < kLookback) continue;
          const ProvenanceEvent probe = MakeTaskEnd(w, i - kLookback);
          std::vector<ProvenanceEvent> snapshot;
          {
            std::lock_guard<std::mutex> lock(mu);
            snapshot = store.Events();
          }
          bool found = false;
          for (auto it = snapshot.rbegin(); it != snapshot.rend(); ++it) {
            if (it->type == ProvenanceEventType::kTaskEnd && it->success &&
                it->signature == probe.signature && it->node == w) {
              found = true;
              break;
            }
          }
          if (!found) std::abort();  // the observation was just recorded
        }
      });
    }
    for (std::thread& t : threads) t.join();
    out.single_eps = static_cast<double>(out.events) / SecondsSince(start);
  }

  // Sharded: each writer owns its shard; the only shared state is the
  // lock-free sequence counter, and a run-scoped view keeps lookups to
  // the writer's own history.
  {
    ProvenanceManager manager;
    std::vector<std::string> runs;
    for (int w = 0; w < kWriters; ++w) {
      runs.push_back(manager.BeginWorkflow(StrFormat("wf%d", w), 0.0));
    }
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&manager, &runs, w, per_writer] {
        ProvenanceShard* shard = manager.shard(runs[static_cast<size_t>(w)]);
        ProvenanceView view =
            manager.ViewOf({runs[static_cast<size_t>(w)]});
        for (int i = 0; i < per_writer; ++i) {
          shard->Append(MakeTaskEnd(w, i));
          if (i < kLookback) continue;
          const ProvenanceEvent probe = MakeTaskEnd(w, i - kLookback);
          if (!ProvenanceOracle::LatestRuntime(view, probe.signature, w)
                   .ok()) {
            std::abort();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    out.sharded_eps = static_cast<double>(out.events) / SecondsSince(start);
  }
  out.speedup = out.single_eps > 0.0 ? out.sharded_eps / out.single_eps : 0.0;
  return out;
}

// ---- burst + merge-on-read queries ----------------------------------------

struct BurstEntry {
  std::string name;
  StagedWorkflow staged;
};

std::vector<BurstEntry> MakeBurst(bool quick) {
  std::vector<BurstEntry> burst;
  for (int i = 0; i < 4; ++i) {
    SnvWorkloadOptions snv;
    snv.num_chunks = 4;
    snv.chunk_bytes = (quick ? 16LL : 48LL) << 20;
    snv.input_dir = StrFormat("/in/snv%d", i);
    snv.output_dir = StrFormat("/out/snv%d", i);
    GeneratedWorkload w = MakeSnvCallingWorkflow(snv);
    BurstEntry e;
    e.name = StrFormat("snv-%d", i);
    e.staged.language = "cuneiform";
    e.staged.document = w.document;
    e.staged.inputs = w.inputs;
    burst.push_back(std::move(e));
  }
  for (int i = 0; i < 4; ++i) {
    KmeansWorkloadOptions kmeans;
    kmeans.points_bytes = (quick ? 8LL : 24LL) << 20;
    kmeans.converge_after = 3;
    kmeans.input_path = StrFormat("/in/kmeans%d/points.csv", i);
    GeneratedWorkload w = MakeKmeansWorkflow(kmeans);
    BurstEntry e;
    e.name = StrFormat("kmeans-%d", i);
    e.staged.language = "cuneiform";
    e.staged.document = w.document;
    e.staged.inputs = w.inputs;
    burst.push_back(std::move(e));
  }
  return burst;
}

struct QueryStats {
  size_t events = 0;
  size_t shards = 0;
  size_t pairs = 0;          // distinct (signature, node) pairs queried
  double latest_p50_us = 0.0;
  double latest_p95_us = 0.0;
  double obs_p50_us = 0.0;
  double merge_ms = 0.0;       // full View().Events() k-way merge
  double export_ms = 0.0;      // merged JSON-lines trace export
  bool equivalent = true;      // every answer == brute-force single-store
  int mismatches = 0;
};

Result<QueryStats> RunBurstAndQuery(bool quick) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "10");
  karamel.SetAttribute("cluster/cores", "3");
  karamel.SetAttribute("cluster/memory_mb", "4096");
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, karamel.Converge());

  std::vector<BurstEntry> burst = MakeBurst(quick);
  for (const BurstEntry& e : burst) {
    for (const auto& [path, size] : e.staged.inputs) {
      if (!d->dfs->Exists(path)) {
        HIWAY_RETURN_IF_ERROR(d->dfs->IngestFile(path, size));
      }
    }
  }
  WorkflowServiceOptions service_options;
  service_options.rm_scheduler = "fair";
  ServiceQueueOptions queue;
  queue.rm.name = "default";
  queue.max_concurrent_ams = 8;
  service_options.queues = {queue};
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<WorkflowService> service,
                         WorkflowService::Create(d.get(), service_options));
  for (const BurstEntry& e : burst) {
    HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<WorkflowSource> source,
                           HiWayClient(d.get()).MakeSource(e.staged));
    HIWAY_RETURN_IF_ERROR(
        service->Submit(e.name, std::move(source)).status());
  }
  HIWAY_RETURN_IF_ERROR(service->RunToCompletion());

  ProvenanceManager* prov = d->provenance.get();
  QueryStats stats;
  stats.shards = prov->shard_count();

  // The single-store baseline sequence: the merged view's own claim is
  // "ascending seq == exactly what one shared store would hold", so the
  // brute-force reference is the shard-concatenated events sorted by
  // seq. Equivalence then checks the merge AND every query against it.
  ProvenanceView view = prov->View();
  auto merge_start = std::chrono::steady_clock::now();
  std::vector<ProvenanceEvent> merged = view.Events();
  stats.merge_ms = SecondsSince(merge_start) * 1e3;
  stats.events = merged.size();

  std::vector<ProvenanceEvent> reference;
  for (const std::string& run : prov->RunIds()) {
    auto shard_events = prov->shard(run)->Events();
    reference.insert(reference.end(), shard_events.begin(),
                     shard_events.end());
  }
  std::sort(reference.begin(), reference.end(),
            [](const ProvenanceEvent& a, const ProvenanceEvent& b) {
              return a.seq < b.seq;
            });
  if (reference.size() != merged.size()) {
    stats.equivalent = false;
    ++stats.mismatches;
  } else {
    for (size_t i = 0; i < merged.size(); ++i) {
      if (merged[i].ToJson().Dump() != reference[i].ToJson().Dump()) {
        stats.equivalent = false;
        ++stats.mismatches;
      }
    }
  }

  // Every (signature, node) pair observed in the burst, queried through
  // the view and cross-checked against a brute-force reference scan.
  std::set<std::pair<std::string, int32_t>> pairs;
  std::set<std::string> signatures;
  for (const ProvenanceEvent& ev : reference) {
    if (ev.type == ProvenanceEventType::kTaskEnd && ev.success) {
      pairs.insert({ev.signature, ev.node});
      signatures.insert(ev.signature);
    }
  }
  stats.pairs = pairs.size();
  std::vector<double> latest_us;
  for (const auto& [sig, node] : pairs) {
    auto q_start = std::chrono::steady_clock::now();
    auto latest = ProvenanceOracle::LatestRuntime(view, sig, node);
    latest_us.push_back(SecondsSince(q_start) * 1e6);
    double brute = -1.0;
    for (const ProvenanceEvent& ev : reference) {
      if (ev.type == ProvenanceEventType::kTaskEnd && ev.success &&
          ev.signature == sig && ev.node == node) {
        brute = ev.duration;
      }
    }
    if (!latest.ok() || *latest != brute) {
      stats.equivalent = false;
      ++stats.mismatches;
    }
  }
  std::vector<double> obs_us;
  for (const std::string& sig : signatures) {
    auto q_start = std::chrono::steady_clock::now();
    auto obs = ProvenanceOracle::RuntimeObservations(view, sig);
    obs_us.push_back(SecondsSince(q_start) * 1e6);
    std::vector<std::pair<int32_t, double>> brute;
    for (const ProvenanceEvent& ev : reference) {
      if (ev.type == ProvenanceEventType::kTaskEnd && ev.success &&
          ev.signature == sig) {
        brute.emplace_back(ev.node, ev.duration);
      }
    }
    if (obs != brute) {
      stats.equivalent = false;
      ++stats.mismatches;
    }
  }
  stats.latest_p50_us = Percentile(latest_us, 50.0);
  stats.latest_p95_us = Percentile(latest_us, 95.0);
  stats.obs_p50_us = Percentile(obs_us, 50.0);

  auto export_start = std::chrono::steady_clock::now();
  std::string trace = view.ExportTrace();
  stats.export_ms = SecondsSince(export_start) * 1e3;
  if (trace.empty()) stats.equivalent = false;
  return stats;
}

int Main(int argc, char** argv) {
  bool quick = bench::QuickMode(argc, argv);
  bool json = bench::JsonMode(argc, argv);

  AppendResult append = MeasureAppendThroughput(quick);
  auto query = RunBurstAndQuery(quick);
  if (!query.ok()) {
    std::fprintf(stderr, "burst: %s\n", query.status().ToString().c_str());
    return 1;
  }

  bool pass = append.speedup >= 2.0 && query->equivalent;
  if (json) {
    std::printf(
        "{\"append\": {\"writers\": %d, \"events\": %zu, "
        "\"single_store_eps\": %.0f, \"sharded_eps\": %.0f, "
        "\"speedup\": %.2f}, "
        "\"burst\": {\"events\": %zu, \"shards\": %zu, \"pairs\": %zu, "
        "\"latest_runtime_us\": {\"p50\": %.2f, \"p95\": %.2f}, "
        "\"observations_p50_us\": %.2f, \"merge_ms\": %.3f, "
        "\"export_ms\": %.3f, \"equivalent\": %s, \"mismatches\": %d}, "
        "\"pass\": %s}\n",
        kWriters, append.events, append.single_eps, append.sharded_eps,
        append.speedup, query->events, query->shards, query->pairs,
        query->latest_p50_us, query->latest_p95_us, query->obs_p50_us,
        query->merge_ms, query->export_ms,
        query->equivalent ? "true" : "false", query->mismatches,
        pass ? "true" : "false");
    return pass ? 0 : 1;
  }

  bench::PrintHeader("Provenance sharding: append throughput + merge-on-read");
  std::printf("append: %d writers, %zu events, record + latest-runtime "
              "lookup per event%s\n",
              kWriters, append.events, quick ? "  [quick]" : "");
  bench::PrintRule(60);
  std::printf("%-22s %14.0f events/s\n", "single locked store",
              append.single_eps);
  std::printf("%-22s %14.0f events/s\n", "per-writer shards",
              append.sharded_eps);
  std::printf("%-22s %13.2fx  (target >= 2x)\n", "speedup", append.speedup);
  std::printf("\nburst: 8 workflows -> %zu shards, %zu events\n",
              query->shards, query->events);
  std::printf("LatestRuntime over %zu (signature, node) pairs: "
              "p50=%.2fus p95=%.2fus\n",
              query->pairs, query->latest_p50_us, query->latest_p95_us);
  std::printf("RuntimeObservations p50=%.2fus; full merge %.3fms; "
              "trace export %.3fms\n",
              query->obs_p50_us, query->merge_ms, query->export_ms);
  std::printf("merged-view equivalence vs single-store sequence: %s "
              "(%d mismatch(es))\n",
              query->equivalent ? "IDENTICAL" : "DIVERGED",
              query->mismatches);
  if (!pass) {
    std::fprintf(stderr, "\nFAIL: %s\n",
                 append.speedup < 2.0
                     ? "sharded append speedup below the 2x acceptance bar"
                     : "merged view diverged from the single-store baseline");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hiway

int main(int argc, char** argv) { return hiway::Main(argc, argv); }
