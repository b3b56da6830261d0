// Deterministic fault-injection harness: scripted and seeded-random
// node kills, AM crashes, container failures, and transient HDFS read
// errors, driven from the simulation clock. The injector is
// deliberately layer-agnostic — it fires through std::function handlers
// installed by whoever wires it (WorkflowService::InstallFaultHandlers,
// tests, the CLI's --faults flag), so src/sim stays free of yarn/service
// dependencies.
//
// Fault-spec grammar (also documented in docs/failure-model.md):
//
//   spec    := clause (',' clause)*
//   clause  := type ('@' time)? (':' key '=' value)*
//   type    := kill-node | kill-am-node | am-crash | fail-container
//            | hdfs-error | spot-revoke
//   key     := at | node | sub | rate | every | until | warn
//
// A clause with `at` (or `@time`) fires once at that virtual time; a
// clause with `rate` recurs every `every` seconds (default 10), firing
// with probability `rate` per period while the workload is active, until
// `until` (if given). `hdfs-error` is always rate-based: each DFS read
// between `at` and `until` fails with probability `rate`. `spot-revoke`
// announces a node's revocation with a `warn`-second warning window
// (default 120, the EC2 spot notice): the node drains, then dies at the
// deadline. `warn` is only valid on spot-revoke clauses. Targets
// (`node`, `sub`) are optional; omitted targets are drawn from the
// injector's seeded RNG, so a fixed seed replays the same fault
// sequence. Malformed specs fail loudly at parse time with the
// offending token — never silently ignored.
//
// Examples:
//   kill-node@120                  one node, picked at random, dies at t=120
//   kill-am-node@60:sub=2          the node hosting submission 2's AM dies
//   am-crash@45                    a random running AM process crashes
//   fail-container:rate=0.2:every=30:until=600
//   hdfs-error:rate=0.05:until=300
//   spot-revoke@300:warn=120       a spot node is warned at t=300, gone at 420

#ifndef HIWAY_SIM_FAULT_INJECTOR_H_
#define HIWAY_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/sim/cluster.h"

namespace hiway {

enum class FaultType {
  kKillNode,       // NodeManager + DataNode crash on one node
  kKillAmNode,     // like kKillNode, but targets a node hosting an AM
  kAmCrash,        // the AM process dies; its node stays healthy
  kFailContainer,  // one running task container is killed
  kHdfsError,      // transient DFS read errors at a configurable rate
  kSpotRevoke,     // spot-instance revocation: warn, drain, then kill
};

const char* ToString(FaultType type);

struct FaultSpec {
  FaultType type = FaultType::kKillNode;
  /// One-shot virtual fire time; < 0 means not scheduled (recurring).
  /// For hdfs-error: the time the error window opens (default 0).
  double at = -1.0;
  /// Recurring probability per period (or per read for hdfs-error);
  /// < 0 means one-shot only.
  double rate = -1.0;
  /// Period of recurring faults, seconds.
  double every = 10.0;
  /// Recurring faults stop after this virtual time; < 0 = while the
  /// workload stays active.
  double until = -1.0;
  /// Explicit node target (kill-node); -1 = seeded-random alive node.
  NodeId node = kInvalidNode;
  /// Explicit submission target (am-crash, kill-am-node); -1 = random.
  int64_t submission = -1;
  /// Warning window of a spot-revoke, seconds between the revocation
  /// notice and the node's death; < 0 = the injector's default (120).
  double warn = -1.0;
};

/// Parses the grammar above. Returns every clause or the first error.
Result<std::vector<FaultSpec>> ParseFaultSpecs(std::string_view text);

/// Wiring points the injector fires through. Unset handlers disable the
/// corresponding fault type (the injector no-ops).
struct FaultHandlers {
  /// Nodes eligible for kill-node (alive workers).
  std::function<std::vector<NodeId>()> list_nodes;
  /// kill_node, crash_am and revoke_node return whether the fault took
  /// effect (a live target); only those that did are counted.
  std::function<bool(NodeId)> kill_node;
  /// Nodes currently hosting at least one AM container.
  std::function<std::vector<NodeId>()> list_am_nodes;
  /// Node hosting a specific submission's AM; < 0 when unknown.
  std::function<NodeId(int64_t submission)> am_node_of;
  /// Running submissions eligible for am-crash.
  std::function<std::vector<int64_t>()> list_submissions;
  std::function<bool(int64_t submission)> crash_am;
  /// Running non-AM task containers.
  std::function<std::vector<int64_t>()> list_containers;
  std::function<void(int64_t container)> fail_container;
  /// Nodes eligible for spot-revoke (the spot partition of the fleet);
  /// unset falls back to list_nodes — every worker is then revocable.
  std::function<std::vector<NodeId>()> list_spot_nodes;
  /// Announces a revocation: `node` drains for `warn_s` seconds, then
  /// dies (the handler owns the drain + deferred kill sequence).
  std::function<bool(NodeId node, double warn_s)> revoke_node;
  /// True while the workload is still running; recurring faults stop
  /// once this turns false after having been true.
  std::function<bool()> active;
};

/// Faults that took effect, by type.
struct FaultCounters {
  int node_kills = 0;
  int am_crashes = 0;
  int container_kills = 0;
  int64_t read_faults = 0;
  int spot_revocations = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(SimEngine* engine, uint64_t seed = 20170321);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void SetHandlers(FaultHandlers handlers) { handlers_ = std::move(handlers); }

  /// Warning window applied to spot-revoke clauses that carry no warn=
  /// of their own (CLI --revoke-warning-s). Must be >= 0.
  void SetDefaultRevokeWarning(double seconds) {
    default_revoke_warning_s_ = seconds;
  }
  double default_revoke_warning_s() const { return default_revoke_warning_s_; }

  /// Schedules the given faults on the engine. May be called repeatedly;
  /// each call adds to the armed set.
  Status Arm(std::vector<FaultSpec> specs);
  /// Parses `text` with ParseFaultSpecs, then Arm()s the result.
  Status ArmSpec(std::string_view text);

  /// DFS read-fault hook (wire via Dfs::SetReadFaultHook): true when an
  /// armed hdfs-error clause decides this read fails.
  bool ShouldFailRead(const std::string& path, NodeId node);

  const FaultCounters& counters() const { return counters_; }
  const std::vector<FaultSpec>& armed() const { return armed_; }

 private:
  void Fire(const FaultSpec& spec);
  /// A uniform draw from what `list` returns; none if it is unset or
  /// returns nothing.
  template <typename T>
  std::optional<T> Draw(const std::function<std::vector<T>()>& list) {
    std::vector<T> items = list ? list() : std::vector<T>{};
    if (items.empty()) return std::nullopt;
    return items[rng_.UniformInt(items.size())];
  }
  /// Schedules the next tick of a recurring fault. `seen_activity`
  /// remembers whether the workload was ever observed running, so the
  /// chain neither stops before the workload starts nor outlives it.
  void Recur(FaultSpec spec, bool seen_activity);

  SimEngine* engine_;
  Rng rng_;
  FaultHandlers handlers_;
  /// EC2-style two-minute spot notice (docs/elastic-cluster.md).
  double default_revoke_warning_s_ = 120.0;
  FaultCounters counters_;
  std::vector<FaultSpec> armed_;
  std::vector<FaultSpec> read_fault_specs_;
};

}  // namespace hiway

#endif  // HIWAY_SIM_FAULT_INJECTOR_H_
