// Max-min fair flow network: the performance model of the simulator.
//
// Every concurrent activity (a CPU burst, a disk read, a network transfer)
// is a *flow* that must cross one or more *shared resources* (a node's CPU
// cores, its disk bandwidth, its NIC, the cluster switch, an EBS volume, an
// S3 uplink). At any instant, rates are assigned by progressive-filling
// max-min fairness with optional per-flow rate caps (e.g. a task that can
// only use 8 threads). A flow completes once its total demand has been
// delivered; completions are discrete events on the SimEngine.
//
// This model reproduces the contention phenomena the Hi-WAY paper's
// evaluation rests on: a saturated 1 GbE switch (Fig. 4), a shared EBS
// volume (Fig. 8), and stress-process interference (Fig. 9).
//
// Changes (start, cancel, completion, capacity change) apply at once but
// only mark the resources they touch dirty. One zero-delay engine event
// per virtual instant then re-solves each dirty connected component of the
// flow–resource graph on its own — a max-min fair allocation decomposes
// over those components — and re-arms the completion event
// (docs/simulator-model.md, "Scoped re-solves").

#ifndef HIWAY_SIM_FLOW_H_
#define HIWAY_SIM_FLOW_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flat_hash.h"
#include "src/common/status.h"
#include "src/sim/engine.h"

namespace hiway {

using ResourceId = int32_t;
using FlowId = int64_t;

constexpr double kInfiniteDemand = std::numeric_limits<double>::infinity();
constexpr double kNoRateCap = std::numeric_limits<double>::infinity();

/// Time-averaged usage statistics for one resource.
struct ResourceStats {
  double capacity = 0.0;
  /// Mean allocated rate over the observation window (same unit as
  /// capacity, e.g. cores or MB/s). Comparable to Linux load average for
  /// CPU resources.
  double mean_rate = 0.0;
  /// Fraction of the window during which at least one flow was active
  /// (i.e. `iostat`-style device utilisation).
  double busy_fraction = 0.0;
  /// Peak instantaneous allocated rate observed.
  double peak_rate = 0.0;
};

/// Parameters for starting a flow.
struct FlowSpec {
  /// Resources the flow crosses; its rate is bounded by its fair share on
  /// each. Must be non-empty.
  std::vector<ResourceId> resources;
  /// Total units (e.g. MB, core-seconds) to deliver. kInfiniteDemand makes
  /// a permanent background flow (never completes; cancel explicitly).
  double demand = 0.0;
  /// Upper bound on the instantaneous rate (e.g. thread count for a CPU
  /// flow). kNoRateCap disables the bound.
  double rate_cap = kNoRateCap;
  /// Fair-share weight: a flow of weight w receives w times the share of a
  /// weight-1 flow on contended resources. Lets N identical background
  /// processes (`stress --cpu N`) be modelled as one flow of weight N.
  double weight = 1.0;
  /// Invoked (via the engine, at completion time) once the demand has been
  /// fully delivered.
  std::function<void()> on_complete;
};

class FlowNetwork {
 public:
  explicit FlowNetwork(SimEngine* engine) : engine_(engine) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Registers a resource with the given capacity (units/second).
  ResourceId AddResource(std::string name, double capacity);

  /// Adjusts capacity at the current virtual time (e.g. node slowdown).
  void SetCapacity(ResourceId id, double capacity);

  double Capacity(ResourceId id) const;

  /// Starts a flow; rates of the flows it now shares resources with
  /// (transitively) are re-balanced once per instant, by a zero-delay
  /// engine event at the current virtual time.
  FlowId StartFlow(FlowSpec spec);

  /// Cancels an in-flight flow without invoking its completion callback.
  /// Unknown / already-completed ids are ignored.
  void CancelFlow(FlowId id);

  /// True if the flow is still in flight.
  bool IsActive(FlowId id) const;

  /// Current assigned rate of an active flow. Runs the current instant's
  /// pending re-solve first, if any.
  double CurrentRate(FlowId id);

  /// Number of flows currently in flight.
  size_t active_flows() const { return flows_.size(); }

  /// Max-min solves run so far: one per virtual instant with changes,
  /// each re-solving every component those changes touched.
  uint64_t solves() const { return solves_; }

  /// Usage statistics since the last ResetStats (or construction).
  ResourceStats Stats(ResourceId id) const;

  /// Clears accumulated statistics for all resources; the observation
  /// window restarts at the current virtual time.
  void ResetStats();

 private:
  struct Resource {
    std::string name;
    double capacity = 0.0;
    // Accounting.
    double rate_integral = 0.0;   // sum of rate * dt
    double busy_integral = 0.0;   // sum of (any flow active) * dt
    double peak_rate = 0.0;
    double current_rate = 0.0;    // sum of flow rates at `last_update`
    int active_count = 0;         // flows crossing this resource
    bool dirty = false;           // listed in `dirty_`
    // Adjacency: slots of the flows crossing this resource, one entry per
    // crossing (unordered; the solver sorts by FlowId).
    std::vector<uint32_t> flows;
    // Solver scratch: walk stamp and index into `fill_res_`.
    uint64_t visit = 0;
    uint32_t local = 0;
  };

  struct Flow {
    FlowId id = 0;
    double remaining = 0.0;
    double rate = 0.0;
    double rate_cap = kNoRateCap;
    double weight = 1.0;
    uint64_t visit = 0;  // walk stamp
    std::vector<ResourceId> resources;
    std::function<void()> on_complete;
  };

  // Per-call solver state, kept in members so their storage is reused.
  struct FillFlow {
    uint32_t slot;
    uint32_t first_res;  // range in `fill_res_index_`
    uint32_t num_res;
    double weight;
    double rate_cap;
    double cap_level;  // rate_cap / weight
    double rate;
  };
  struct FillResource {
    double remaining_capacity;
    double unfrozen_weight;
    int unfrozen_count;  // after filling: flows crossing it
    double level;        // saturation level this round, if unfrozen_count > 0
    double rate_sum;
  };

  /// Advances all flow progress / statistics to engine_->Now().
  void Settle();

  /// Adds `touched` to the dirty set. The instant's first change cancels
  /// the completion event and schedules the flush.
  void MarkDirty(std::span<const ResourceId> touched);

  /// Re-solves every dirty component and re-arms the completion event.
  void Flush();

  /// Recomputes max-min fair rates on the component containing `seed`.
  /// The caller bumps `walk_`.
  void SolveComponent(ResourceId seed);

  /// Removes the flow in `slot` from dense storage and the adjacency.
  void RemoveFlow(uint32_t slot);

  /// Event handler: completes every flow whose demand has been delivered.
  void OnCompletionEvent();

  SimEngine* engine_;
  std::vector<Resource> resources_;
  // Dense flow storage: active flows occupy slots [0, flows_.size()).
  std::vector<Flow> flows_;
  FlatHashMap<FlowId, uint32_t> slot_of_;
  uint64_t walk_ = 0;
  std::vector<ResourceId> comp_res_;
  std::vector<FillFlow> fill_flows_;
  std::vector<std::pair<FlowId, uint32_t>> order_;  // (id, fill_flows_ index)
  std::vector<std::pair<FlowId, uint32_t>> order_tmp_;
  std::vector<FillResource> fill_res_;
  std::vector<uint32_t> fill_res_index_;
  std::vector<uint32_t> unfrozen_;
  std::vector<uint8_t> freeze_;
  std::vector<ResourceId> touched_;
  std::vector<ResourceId> dirty_;
  std::vector<FlowId> done_;
  std::vector<std::function<void()>> callbacks_;
  FlowId next_flow_id_ = 1;
  SimTime last_update_ = 0.0;
  SimTime stats_start_ = 0.0;
  EventId pending_event_ = 0;
  bool has_pending_event_ = false;
  EventId flush_event_ = 0;
  bool has_flush_event_ = false;
  uint64_t solves_ = 0;
};

}  // namespace hiway

#endif  // HIWAY_SIM_FLOW_H_
