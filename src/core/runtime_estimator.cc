#include "src/core/runtime_estimator.h"

#include <algorithm>

namespace hiway {

void RuntimeEstimator::Observe(const std::string& signature, int32_t node,
                               double runtime) {
  runtime = std::max(runtime, 0.0);
  Cell& cell = cells_[{signature, node}];
  cell.latest = runtime;
  cell.sum += runtime;
  ++cell.count;
  Cell& sig = by_signature_[signature];
  sig.latest = runtime;
  sig.sum += runtime;
  ++sig.count;
  ++observation_count_;
}

double RuntimeEstimator::Estimate(const std::string& signature,
                                  int32_t node) const {
  auto it = cells_.find({signature, node});
  switch (strategy_) {
    case EstimationStrategy::kLatestObserved:
      return it == cells_.end() ? 0.0 : it->second.latest;
    case EstimationStrategy::kRunningMean:
      return it == cells_.end() ? 0.0
                                : it->second.sum /
                                      static_cast<double>(it->second.count);
    case EstimationStrategy::kLatestWithSignatureFallback: {
      if (it != cells_.end()) return it->second.latest;
      auto sig = by_signature_.find(signature);
      if (sig != by_signature_.end() && sig->second.count > 0) {
        return sig->second.sum / static_cast<double>(sig->second.count);
      }
      return 0.0;
    }
  }
  return 0.0;
}

bool RuntimeEstimator::HasObservation(const std::string& signature,
                                      int32_t node) const {
  return cells_.find({signature, node}) != cells_.end();
}

double RuntimeEstimator::MeanEstimate(const std::string& signature,
                                      int num_nodes) const {
  if (num_nodes <= 0) return 0.0;
  double total = 0.0;
  for (int n = 0; n < num_nodes; ++n) {
    total += Estimate(signature, n);
  }
  return total / num_nodes;
}

void RuntimeEstimator::Clear() {
  cells_.clear();
  by_signature_.clear();
  observation_count_ = 0;
}

}  // namespace hiway
