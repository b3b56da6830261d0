// Test-only reference solver for FlowNetwork: weighted progressive-filling
// max-min fairness with rate caps, solved over the whole network at once.
//
// FlowNetwork re-solves only the connected component(s) a change touches
// (docs/simulator-model.md, "Scoped re-solves"). This oracle re-solves
// everything, visiting flows in FlowId order and applying each round's
// freezes in reverse FlowId order, so for any active set the two agree bit
// for bit except where two components saturate within kRateEpsilon of each
// other (see flow_solver_test.cc).

#ifndef HIWAY_TESTS_ORACLES_FLOW_ORACLE_H_
#define HIWAY_TESTS_ORACLES_FLOW_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <vector>

#include "src/sim/flow.h"

namespace hiway {

struct OracleFlow {
  std::vector<ResourceId> resources;
  double rate_cap = kNoRateCap;
  double weight = 1.0;
};

/// Max-min fair rate of every flow in `flows`, given each resource's
/// capacity (indexed by ResourceId).
inline std::map<FlowId, double> GlobalMaxMinRates(
    const std::vector<double>& capacities,
    const std::map<FlowId, OracleFlow>& flows) {
  // Same freeze tolerance as src/sim/flow.cc.
  constexpr double kRateEpsilon = 1e-12;
  struct ResState {
    double remaining_capacity;
    double unfrozen_weight;
    int unfrozen_count;
  };
  std::vector<ResState> rs(capacities.size());
  for (size_t i = 0; i < capacities.size(); ++i) {
    rs[i] = {capacities[i], 0.0, 0};
  }
  std::map<FlowId, double> rates;
  std::vector<std::map<FlowId, OracleFlow>::const_iterator> unfrozen;
  for (auto it = flows.begin(); it != flows.end(); ++it) {
    rates[it->first] = 0.0;
    unfrozen.push_back(it);
    for (ResourceId r : it->second.resources) {
      rs[static_cast<size_t>(r)].unfrozen_weight += it->second.weight;
      ++rs[static_cast<size_t>(r)].unfrozen_count;
    }
  }

  while (!unfrozen.empty()) {
    double min_res_level = std::numeric_limits<double>::infinity();
    for (const auto& r : rs) {
      if (r.unfrozen_count > 0) {
        min_res_level =
            std::min(min_res_level,
                     std::max(0.0, r.remaining_capacity) / r.unfrozen_weight);
      }
    }
    double min_cap_level = std::numeric_limits<double>::infinity();
    for (const auto& it : unfrozen) {
      min_cap_level =
          std::min(min_cap_level, it->second.rate_cap / it->second.weight);
    }
    double level = std::min(min_res_level, min_cap_level);
    if (!std::isfinite(level)) level = 0.0;

    std::vector<size_t> to_freeze;
    for (size_t i = 0; i < unfrozen.size(); ++i) {
      const OracleFlow& f = unfrozen[i]->second;
      bool freeze = f.rate_cap / f.weight <= level + kRateEpsilon;
      for (size_t j = 0; !freeze && j < f.resources.size(); ++j) {
        const auto& st = rs[static_cast<size_t>(f.resources[j])];
        double res_level =
            std::max(0.0, st.remaining_capacity) / st.unfrozen_weight;
        freeze = res_level <= level + kRateEpsilon;
      }
      if (freeze) to_freeze.push_back(i);
    }
    if (to_freeze.empty()) {
      // Numerical corner: force progress by freezing everything at level.
      for (size_t i = 0; i < unfrozen.size(); ++i) to_freeze.push_back(i);
    }

    for (auto it = to_freeze.rbegin(); it != to_freeze.rend(); ++it) {
      const auto& entry = unfrozen[*it];
      const OracleFlow& f = entry->second;
      double rate = std::min(level * f.weight, f.rate_cap);
      rates[entry->first] = rate;
      for (ResourceId r : f.resources) {
        auto& st = rs[static_cast<size_t>(r)];
        st.remaining_capacity -= rate;
        st.unfrozen_weight -= f.weight;
        --st.unfrozen_count;
      }
      unfrozen.erase(unfrozen.begin() + static_cast<std::ptrdiff_t>(*it));
    }
  }
  return rates;
}

}  // namespace hiway

#endif  // HIWAY_TESTS_ORACLES_FLOW_ORACLE_H_
