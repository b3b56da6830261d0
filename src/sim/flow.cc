#include "src/sim/flow.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace hiway {

namespace {
// Demand below this is considered delivered (guards float drift).
constexpr double kDemandEpsilon = 1e-7;
// Rates below this are treated as starvation (no completion scheduled).
constexpr double kRateEpsilon = 1e-12;

// Sorts (FlowId, index) pairs by id. Large components use an LSD radix
// sort over the ids' offsets from the smallest, byte by byte: linear
// where std::sort's unpredictable compares dominated the solve.
void SortById(std::vector<std::pair<FlowId, uint32_t>>* v,
              std::vector<std::pair<FlowId, uint32_t>>* tmp) {
  if (v->size() < 32) {
    std::sort(v->begin(), v->end());
    return;
  }
  auto [lo, hi] = std::minmax_element(v->begin(), v->end());
  FlowId base = lo->first;
  auto span = static_cast<uint64_t>(hi->first - base);
  tmp->resize(v->size());
  for (int shift = 0; shift < 64 && (span >> shift) != 0; shift += 8) {
    size_t start[257] = {};
    for (const auto& e : *v) {
      ++start[((static_cast<uint64_t>(e.first - base) >> shift) & 0xff) + 1];
    }
    for (size_t b = 1; b < 257; ++b) start[b] += start[b - 1];
    for (const auto& e : *v) {
      (*tmp)[start[(static_cast<uint64_t>(e.first - base) >> shift) & 0xff]++] =
          e;
    }
    v->swap(*tmp);
  }
}

// Removes one occurrence of `slot` from an adjacency list.
void EraseSlot(std::vector<uint32_t>* adj, uint32_t slot) {
  *std::find(adj->begin(), adj->end(), slot) = adj->back();
  adj->pop_back();
}
}  // namespace

ResourceId FlowNetwork::AddResource(std::string name, double capacity) {
  HIWAY_CHECK(capacity >= 0.0);
  Resource r;
  r.name = std::move(name);
  r.capacity = capacity;
  resources_.push_back(std::move(r));
  return static_cast<ResourceId>(resources_.size() - 1);
}

void FlowNetwork::SetCapacity(ResourceId id, double capacity) {
  HIWAY_CHECK(id >= 0 && static_cast<size_t>(id) < resources_.size());
  HIWAY_CHECK(capacity >= 0.0);
  Settle();
  resources_[static_cast<size_t>(id)].capacity = capacity;
  MarkDirty({&id, 1});
}

double FlowNetwork::Capacity(ResourceId id) const {
  HIWAY_CHECK(id >= 0 && static_cast<size_t>(id) < resources_.size());
  return resources_[static_cast<size_t>(id)].capacity;
}

FlowId FlowNetwork::StartFlow(FlowSpec spec) {
  HIWAY_CHECK(!spec.resources.empty());
  HIWAY_CHECK(spec.demand >= 0.0);
  // A finite flow with a zero cap would never complete.
  HIWAY_CHECK(!std::isfinite(spec.demand) || spec.rate_cap > 0.0);
  Settle();
  HIWAY_CHECK(spec.weight > 0.0);
  for (ResourceId r : spec.resources) {
    HIWAY_CHECK(r >= 0 && static_cast<size_t>(r) < resources_.size());
  }
  auto slot = static_cast<uint32_t>(flows_.size());
  Flow& flow = flows_.emplace_back();
  flow.id = next_flow_id_++;
  flow.resources = std::move(spec.resources);
  flow.remaining = spec.demand;
  flow.rate_cap = spec.rate_cap;
  flow.weight = spec.weight;
  flow.on_complete = std::move(spec.on_complete);
  slot_of_.emplace(flow.id, slot);
  for (ResourceId r : flow.resources) {
    resources_[static_cast<size_t>(r)].flows.push_back(slot);
  }
  MarkDirty(flow.resources);
  return flow.id;
}

void FlowNetwork::CancelFlow(FlowId id) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return;
  Settle();
  uint32_t slot = it->second;
  MarkDirty(flows_[slot].resources);
  RemoveFlow(slot);
}

bool FlowNetwork::IsActive(FlowId id) const { return slot_of_.contains(id); }

double FlowNetwork::CurrentRate(FlowId id) {
  if (has_flush_event_) {
    engine_->Cancel(flush_event_);
    Flush();
  }
  auto it = slot_of_.find(id);
  return it == slot_of_.end() ? 0.0 : flows_[it->second].rate;
}

void FlowNetwork::Settle() {
  SimTime now = engine_->Now();
  double dt = now - last_update_;
  if (dt < 0.0) dt = 0.0;
  if (dt > 0.0) {
    for (Flow& flow : flows_) {
      if (std::isfinite(flow.remaining)) {
        flow.remaining = std::max(0.0, flow.remaining - flow.rate * dt);
      }
    }
    for (auto& res : resources_) {
      res.rate_integral += res.current_rate * dt;
      if (res.active_count > 0) res.busy_integral += dt;
    }
  }
  last_update_ = now;
}

void FlowNetwork::RemoveFlow(uint32_t slot) {
  for (ResourceId r : flows_[slot].resources) {
    EraseSlot(&resources_[static_cast<size_t>(r)].flows, slot);
  }
  slot_of_.erase(flows_[slot].id);
  auto last = static_cast<uint32_t>(flows_.size() - 1);
  if (slot != last) {
    // Move the last flow into the hole and relabel its adjacency entries.
    Flow& moved = flows_[last];
    for (ResourceId r : moved.resources) {
      auto& adj = resources_[static_cast<size_t>(r)].flows;
      *std::find(adj.begin(), adj.end(), last) = slot;
    }
    slot_of_[moved.id] = slot;
    flows_[slot] = std::move(moved);
  }
  flows_.pop_back();
}

void FlowNetwork::MarkDirty(std::span<const ResourceId> touched) {
  for (ResourceId r : touched) {
    Resource& res = resources_[static_cast<size_t>(r)];
    if (!res.dirty) {
      res.dirty = true;
      dirty_.push_back(r);
    }
  }
  if (has_flush_event_) return;
  // First change this instant. The flush re-arms the completion event from
  // the instant's final rates; until then no completion may fire.
  if (has_pending_event_) {
    engine_->Cancel(pending_event_);
    has_pending_event_ = false;
  }
  flush_event_ = engine_->ScheduleAfter(0.0, [this] { Flush(); });
  has_flush_event_ = true;
}

void FlowNetwork::Flush() {
  has_flush_event_ = false;
  ++solves_;
  // One walk stamp for the whole flush: a dirty resource already reached
  // from an earlier one lies in a component solved this flush.
  ++walk_;
  for (ResourceId r : dirty_) {
    Resource& res = resources_[static_cast<size_t>(r)];
    res.dirty = false;
    if (res.visit != walk_) SolveComponent(r);
  }
  dirty_.clear();

  // Arm the next completion event.
  double next_dt = std::numeric_limits<double>::infinity();
  for (const Flow& flow : flows_) {
    if (!std::isfinite(flow.remaining)) continue;
    if (flow.remaining <= kDemandEpsilon) {
      next_dt = 0.0;
      break;
    }
    if (flow.rate > kRateEpsilon) {
      next_dt = std::min(next_dt, flow.remaining / flow.rate);
    }
  }
  if (std::isfinite(next_dt)) {
    pending_event_ =
        engine_->ScheduleAfter(next_dt, [this] { OnCompletionEvent(); });
    has_pending_event_ = true;
  }
}

void FlowNetwork::SolveComponent(ResourceId seed) {
  // --- Collect the connected component of the flow–resource graph that
  // contains `seed`. Flows outside it share no resource with it, so their
  // max-min rates cannot depend on it. ---
  comp_res_.clear();
  fill_flows_.clear();
  fill_res_index_.clear();
  order_.clear();
  auto visit = [this](ResourceId r) {
    Resource& res = resources_[static_cast<size_t>(r)];
    if (res.visit != walk_) {
      res.visit = walk_;
      res.local = static_cast<uint32_t>(comp_res_.size());
      comp_res_.push_back(r);
    }
    return res.local;
  };
  visit(seed);
  for (size_t i = 0; i < comp_res_.size(); ++i) {
    for (uint32_t slot : resources_[static_cast<size_t>(comp_res_[i])].flows) {
      Flow& f = flows_[slot];
      if (f.visit == walk_) continue;
      f.visit = walk_;
      auto first = static_cast<uint32_t>(fill_res_index_.size());
      for (ResourceId r : f.resources) fill_res_index_.push_back(visit(r));
      order_.emplace_back(f.id, static_cast<uint32_t>(fill_flows_.size()));
      fill_flows_.push_back({slot, first,
                             static_cast<uint32_t>(f.resources.size()),
                             f.weight, f.rate_cap, f.rate_cap / f.weight,
                             0.0});
    }
  }
  // FlowId order fixes the order of every floating-point accumulation
  // below, so a scoped solve reproduces a global solve bit for bit.
  SortById(&order_, &order_tmp_);

  fill_res_.resize(comp_res_.size());
  for (size_t k = 0; k < comp_res_.size(); ++k) {
    fill_res_[k] = {resources_[static_cast<size_t>(comp_res_[k])].capacity,
                    0.0, 0, 0.0, 0.0};
  }
  unfrozen_.clear();
  for (const auto& [id, idx] : order_) {
    const FillFlow& ff = fill_flows_[idx];
    for (uint32_t j = 0; j < ff.num_res; ++j) {
      FillResource& st = fill_res_[fill_res_index_[ff.first_res + j]];
      st.unfrozen_weight += ff.weight;
      ++st.unfrozen_count;
    }
    unfrozen_.push_back(idx);
  }
  freeze_.resize(unfrozen_.size());

  // --- Weighted progressive-filling max-min fairness with rate caps. ---
  // All unfrozen flows rise together at rate `level * weight` until either
  // (a) some resource saturates — its flows freeze at the current level —
  // or (b) a flow reaches its cap (normalised level cap/weight) and
  // freezes there. Repeats until every flow is frozen. The unfrozen flows
  // are unfrozen_[begin, end), in FlowId order.
  size_t begin = 0;
  const size_t end = unfrozen_.size();
  while (begin < end) {
    // Normalised level at which the tightest resource saturates.
    double min_res_level = std::numeric_limits<double>::infinity();
    for (FillResource& st : fill_res_) {
      if (st.unfrozen_count > 0) {
        st.level = std::max(0.0, st.remaining_capacity) / st.unfrozen_weight;
        min_res_level = std::min(min_res_level, st.level);
      }
    }
    // Normalised level at which the most constrained flow caps out.
    double min_cap_level = std::numeric_limits<double>::infinity();
    for (size_t i = begin; i < end; ++i) {
      min_cap_level = std::min(min_cap_level, fill_flows_[unfrozen_[i]].cap_level);
    }
    double level = std::min(min_res_level, min_cap_level);
    if (!std::isfinite(level)) level = 0.0;

    // A flow freezes if its cap or one of its resources binds at `level`.
    const double threshold = level + kRateEpsilon;
    bool any = false;
    for (size_t i = begin; i < end; ++i) {
      const FillFlow& ff = fill_flows_[unfrozen_[i]];
      bool freeze = ff.cap_level <= threshold;
      for (uint32_t j = 0; !freeze && j < ff.num_res; ++j) {
        freeze = fill_res_[fill_res_index_[ff.first_res + j]].level <= threshold;
      }
      freeze_[i] = freeze;
      any = any || freeze;
    }
    if (!any) {
      // Numerical corner: force progress by freezing everything at level.
      std::fill(freeze_.begin() + static_cast<ptrdiff_t>(begin),
                freeze_.end(), uint8_t{1});
    }

    // Apply freezes in reverse FlowId order, compacting the survivors
    // stably toward the back of the range.
    size_t keep = end;
    for (size_t i = end; i-- > begin;) {
      uint32_t idx = unfrozen_[i];
      if (!freeze_[i]) {
        unfrozen_[--keep] = idx;
        continue;
      }
      FillFlow& ff = fill_flows_[idx];
      ff.rate = std::min(level * ff.weight, ff.rate_cap);
      for (uint32_t j = 0; j < ff.num_res; ++j) {
        FillResource& st = fill_res_[fill_res_index_[ff.first_res + j]];
        st.remaining_capacity -= ff.rate;
        st.unfrozen_weight -= ff.weight;
        --st.unfrozen_count;
      }
    }
    begin = keep;
  }

  // Publish the rates and refresh the component's instantaneous
  // accounting (sums in FlowId order, as a global refresh would).
  for (const auto& [id, idx] : order_) {
    const FillFlow& ff = fill_flows_[idx];
    flows_[ff.slot].rate = ff.rate;
    for (uint32_t j = 0; j < ff.num_res; ++j) {
      FillResource& st = fill_res_[fill_res_index_[ff.first_res + j]];
      st.rate_sum += ff.rate;
      ++st.unfrozen_count;
    }
  }
  for (size_t k = 0; k < comp_res_.size(); ++k) {
    Resource& res = resources_[static_cast<size_t>(comp_res_[k])];
    res.current_rate = fill_res_[k].rate_sum;
    res.active_count = fill_res_[k].unfrozen_count;
    res.peak_rate = std::max(res.peak_rate, res.current_rate);
  }
}

void FlowNetwork::OnCompletionEvent() {
  has_pending_event_ = false;
  Settle();
  // Remove finished flows before running callbacks so that they observe a
  // consistent network (they frequently start follow-up flows); callbacks
  // run in FlowId order.
  done_.clear();
  for (const Flow& flow : flows_) {
    if (std::isfinite(flow.remaining) && flow.remaining <= kDemandEpsilon) {
      done_.push_back(flow.id);
    }
  }
  std::sort(done_.begin(), done_.end());
  touched_.clear();
  for (FlowId id : done_) {
    uint32_t slot = slot_of_.at(id);
    Flow& flow = flows_[slot];
    if (flow.on_complete) callbacks_.push_back(std::move(flow.on_complete));
    touched_.insert(touched_.end(), flow.resources.begin(),
                    flow.resources.end());
    RemoveFlow(slot);
  }
  MarkDirty(touched_);
  std::vector<std::function<void()>> callbacks = std::move(callbacks_);
  for (auto& cb : callbacks) cb();
  callbacks.clear();
  callbacks_ = std::move(callbacks);
}

ResourceStats FlowNetwork::Stats(ResourceId id) const {
  HIWAY_CHECK(id >= 0 && static_cast<size_t>(id) < resources_.size());
  const Resource& res = resources_[static_cast<size_t>(id)];
  ResourceStats out;
  out.capacity = res.capacity;
  out.peak_rate = res.peak_rate;
  double window = engine_->Now() - stats_start_;
  // Include un-settled progress since last_update_.
  double extra = engine_->Now() - last_update_;
  double rate_integral = res.rate_integral + res.current_rate * extra;
  double busy_integral =
      res.busy_integral + (res.active_count > 0 ? extra : 0.0);
  if (window > 0.0) {
    out.mean_rate = rate_integral / window;
    out.busy_fraction = busy_integral / window;
  }
  return out;
}

void FlowNetwork::ResetStats() {
  Settle();
  stats_start_ = engine_->Now();
  for (auto& res : resources_) {
    res.rate_integral = 0.0;
    res.busy_integral = 0.0;
    res.peak_rate = res.current_rate;
  }
}

}  // namespace hiway
