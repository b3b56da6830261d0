// Runtime estimation from provenance (Sec. 3.4 of the paper).
//
// The estimator answers "how long will a task with signature S take on
// node N?" from past observations. The paper's default strategy is to use
// the latest observed runtime for the exact (signature, node) pair and to
// assume zero for unobserved pairs, which deliberately drives exploration
// of new task-machine assignments. A running-mean strategy is provided for
// the A4 ablation.

#ifndef HIWAY_CORE_RUNTIME_ESTIMATOR_H_
#define HIWAY_CORE_RUNTIME_ESTIMATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace hiway {

enum class EstimationStrategy {
  /// Latest observed runtime of (signature, node); unseen -> 0 (paper
  /// default: optimistic, forces trying every assignment once).
  kLatestObserved,
  /// Arithmetic mean of all observations of (signature, node); unseen -> 0.
  kRunningMean,
  /// Like kLatestObserved, but an unseen pair falls back to the mean over
  /// *other* nodes for the same signature (and only then to 0) — a less
  /// exploratory variant for the estimator ablation.
  kLatestWithSignatureFallback,
};

class RuntimeEstimator {
 public:
  explicit RuntimeEstimator(
      EstimationStrategy strategy = EstimationStrategy::kLatestObserved)
      : strategy_(strategy) {}

  /// Records a fresh observation (called by the AM on task completion).
  void Observe(const std::string& signature, int32_t node, double runtime);

  /// Estimated runtime in seconds; never negative.
  double Estimate(const std::string& signature, int32_t node) const;

  /// True if (signature, node) has at least one observation.
  bool HasObservation(const std::string& signature, int32_t node) const;

  /// Mean of Estimate() across `num_nodes` nodes (HEFT's w̄ term).
  double MeanEstimate(const std::string& signature, int num_nodes) const;

  /// Total observations recorded.
  int64_t observation_count() const { return observation_count_; }

  EstimationStrategy strategy() const { return strategy_; }

  void Clear();

 private:
  struct Cell {
    double latest = 0.0;
    double sum = 0.0;
    int64_t count = 0;
  };

  EstimationStrategy strategy_;
  std::map<std::pair<std::string, int32_t>, Cell> cells_;
  /// Per-signature aggregate for the fallback strategy.
  std::map<std::string, Cell> by_signature_;
  int64_t observation_count_ = 0;
};

}  // namespace hiway

#endif  // HIWAY_CORE_RUNTIME_ESTIMATOR_H_
