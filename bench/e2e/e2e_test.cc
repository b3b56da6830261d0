// Checks for bench_e2e's own machinery (ctest -L e2e):
//
//   e2e_test attribution            public functions of each src/ module
//                                   resolve to that module's layer
//   e2e_test benchmark-json FILE    BENCHMARK.json names exactly the
//                                   workloads and metrics bench_e2e reports

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "bench/e2e/metrics.h"
#include "bench/e2e/profiler.h"
#include "src/cache/result_cache.h"
#include "src/cache/staging_cache.h"
#include "src/common/json.h"
#include "src/common/strings.h"
#include "src/core/hiway_am.h"
#include "src/core/provenance.h"
#include "src/core/runtime_estimator.h"
#include "src/core/scheduler.h"
#include "src/gc/footprint.h"
#include "src/gc/intermediate_gc.h"
#include "src/hdfs/dfs.h"
#include "src/lang/cuneiform.h"
#include "src/lang/dax_source.h"
#include "src/service/workflow_service.h"
#include "src/sim/cluster.h"
#include "src/sim/engine.h"
#include "src/sim/flow.h"
#include "src/yarn/yarn.h"

namespace hiway {
namespace e2e {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

/// Code address of a non-virtual member function. Under the Itanium C++
/// ABI a pointer to one holds the function's address in its first word.
template <typename Member>
uintptr_t AddressOf(Member member) {
  static_assert(sizeof(member) == 2 * sizeof(uintptr_t));
  uintptr_t words[2];
  std::memcpy(words, &member, sizeof(member));
  return words[0];
}

template <typename Ret, typename... Args>
uintptr_t AddressOf(Ret (*fn)(Args...)) {
  return reinterpret_cast<uintptr_t>(fn);
}

int Attribution() {
  auto symbols = Symbolizer::ForThisProcess();
  if (!symbols.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", symbols.status().ToString().c_str());
    return 1;
  }
  struct Case {
    const char* what;
    uintptr_t pc;
    const char* layer;
  };
  const Case cases[] = {
      {"SimEngine::ScheduleAt", AddressOf(&SimEngine::ScheduleAt),
       "sim.engine"},
      {"FlowNetwork::StartFlow", AddressOf(&FlowNetwork::StartFlow),
       "sim.flow"},
      {"Cluster::LocalDiskPath", AddressOf(&Cluster::LocalDiskPath),
       "sim.cluster"},
      {"ResourceManager::SubmitRequest",
       AddressOf(&ResourceManager::SubmitRequest), "yarn"},
      {"HiWayAm::Submit", AddressOf(&HiWayAm::Submit), "core.am"},
      {"MakeScheduler", AddressOf(&MakeScheduler), "core.scheduler"},
      {"RuntimeEstimator::Estimate", AddressOf(&RuntimeEstimator::Estimate),
       "core.scheduler"},
      {"ProvenanceShard::Append", AddressOf(&ProvenanceShard::Append),
       "core.provenance"},
      {"Dfs::Stat", AddressOf(&Dfs::Stat), "hdfs"},
      {"Dfs::LocalBytes", AddressOf(&Dfs::LocalBytes), "hdfs"},
      {"CuneiformSource::Parse", AddressOf(&CuneiformSource::Parse), "lang"},
      {"DaxSource::Parse", AddressOf(&DaxSource::Parse), "lang"},
      {"ResultCache::Lookup", AddressOf(&ResultCache::Lookup), "cache"},
      {"StagingCache::HitAndPin", AddressOf(&StagingCache::HitAndPin),
       "cache"},
      {"IntermediateGc::Sweep", AddressOf(&IntermediateGc::Sweep), "gc"},
      {"EstimateFootprint", AddressOf(&EstimateFootprint), "gc"},
      {"WorkflowService::Submit", AddressOf(&WorkflowService::Submit),
       "service"},
      // src/common helpers are charged to their caller.
      {"Json::Parse", AddressOf(&Json::Parse), ""},
      {"ParseInt64", AddressOf(&ParseInt64), ""},
  };
  for (const Case& c : cases) {
    std::string layer = (*symbols)->Layer(c.pc);
    Expect(layer == c.layer,
           StrFormat("%s (resolved as '%s') -> '%s', want '%s'", c.what,
                     (*symbols)->Name(c.pc).c_str(), layer.c_str(),
                     c.layer));
  }

  struct NameCase {
    const char* name;
    const char* file;
    const char* layer;
  };
  const NameCase names[] = {
      // Event callbacks run through std::function: the lambda's home.
      {"std::_Function_handler<void (), hiway::HiWayAm::LaunchTask("
       "hiway::HiWayAm::TaskEntry*, hiway::Container const&)::{lambda()#1}>"
       "::_M_invoke(std::_Any_data const&)",
       "", "core.am"},
      {"non-virtual thunk to hiway::HiWayAm::OnContainerAllocated("
       "hiway::Container const&, long)",
       "", "core.am"},
      {"hiway::DfsStorageAdapter::StageOut(std::string const&, long, int, "
       "std::function<void (hiway::Status)>)",
       "", "core.am"},
      // Local symbols go by the file they were compiled from.
      {"hiway::(anonymous namespace)::FairScheduler::Order()",
       "rm_scheduler.cc", "yarn"},
      {"std::vector<int, std::allocator<int> >::push_back(int const&)",
       "flow.cc", "sim.flow"},
      {"hiway::(anonymous namespace)::FormatNumber(double)", "json.cc", ""},
      {"frame_dummy", "crtstuff.c", ""},
      // Hiway code outside the named layers, and everything else.
      {"hiway::Tracer::Record(hiway::TraceEvent)", "", "other"},
      {"hiway::e2e::RunWorkload(std::string const&)", "", "other"},
      {"std::vector<int, std::allocator<int> >::push_back(int const&)", "",
       ""},
      {"hiway::FlatHashMap<long, int>::Find(long const&)", "", ""},
      {"hiway::StrFormat(char const*, ...)", "", ""},
  };
  for (const NameCase& c : names) {
    std::string layer = LayerOf(c.name, c.file);
    Expect(layer == c.layer, StrFormat("LayerOf(%s, '%s') -> '%s', want '%s'",
                                       c.name, c.file, layer.c_str(),
                                       c.layer));
  }
  return failures == 0 ? 0 : 1;
}

int BenchmarkJson(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto json = Json::Parse(text);
  Status st = json.ok() ? CheckBenchmarkJson(*json) : json.status();
  if (!st.ok()) {
    std::fprintf(stderr, "FAIL: %s: %s\n", path.c_str(), st.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace hiway

int main(int argc, char** argv) {
  std::string what = argc > 1 ? argv[1] : "";
  if (what == "attribution") return hiway::e2e::Attribution();
  if (what == "benchmark-json" && argc > 2) {
    return hiway::e2e::BenchmarkJson(argv[2]);
  }
  std::fprintf(stderr,
               "usage: e2e_test attribution | benchmark-json FILE\n");
  return 2;
}
