// Offline analysis over a drained execution trace (src/obs/tracer.h):
// reconstructs per-task-attempt timelines, derives the task dependency
// graph recorded by the AM, and extracts the critical path — the
// longest dependency-ordered chain of wait + localize/data + compute
// segments — attributing the workflow makespan to scheduler-queue
// delay vs. data movement vs. compute. This is what turns a bench
// number ("HEFT is 1.3x faster") into an explanation ("it cut
// queue-wait on the chain through mProject by 80 s").
//
// See docs/observability.md for the span taxonomy the analyzer
// consumes and a worked example.

#ifndef HIWAY_OBS_TRACE_ANALYZER_H_
#define HIWAY_OBS_TRACE_ANALYZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/tracer.h"

namespace hiway {

/// The reconstructed timeline of one task (its final/successful
/// attempt): the four timestamps bounding the wait, localize, and
/// execute segments, plus the data-movement seconds reported by the
/// executor's stage transfers.
struct TaskTimeline {
  int64_t task = -1;
  int64_t app = -1;
  int64_t node = -1;
  double ready_at = -1.0;      // task became ready (request submitted)
  double allocated_at = -1.0;  // container allocated (localize begins)
  double exec_start_at = -1.0; // tool invocation begins
  double finished_at = -1.0;   // attempt completed
  /// Stage-in/out transfer seconds recorded for the attempt.
  double stage_seconds = 0.0;
  int attempts = 1;
  /// Upstream tasks whose outputs this task consumed (trace-recorded).
  std::vector<int64_t> deps;

  // Segment durations (clamped at 0 when a timestamp is missing).
  double WaitSeconds() const;      // ready -> allocated (queue delay)
  double LocalizeSeconds() const;  // allocated -> exec start
  /// Data movement: container localisation plus stage transfers.
  double DataSeconds() const { return LocalizeSeconds() + stage_seconds; }
  /// Pure compute: execution window minus the stage transfers in it.
  double ComputeSeconds() const;
  /// Total weight of the task on a chain: wait + data + compute.
  double TotalSeconds() const;
};

/// One hop of the critical path, with its per-category attribution.
struct CriticalPathStep {
  int64_t task = -1;
  double wait_s = 0.0;
  double data_s = 0.0;
  double compute_s = 0.0;
};

/// The longest dependency chain and its time breakdown.
struct CriticalPathReport {
  std::vector<CriticalPathStep> steps;  // dependency order, root first
  double total_s = 0.0;
  double wait_s = 0.0;     // scheduler-queue delay on the path
  double data_s = 0.0;     // localisation + stage transfers on the path
  double compute_s = 0.0;  // tool execution on the path
  /// Workflow makespan from the trace's workflow span (0 when absent).
  double makespan_s = 0.0;
  /// wait/data/compute as fractions of total_s (0 when total is 0).
  double WaitShare() const { return total_s > 0 ? wait_s / total_s : 0; }
  double DataShare() const { return total_s > 0 ? data_s / total_s : 0; }
  double ComputeShare() const {
    return total_s > 0 ? compute_s / total_s : 0;
  }
  std::string Summary() const;
};

class TraceAnalyzer {
 public:
  /// Consumes a drained trace (Tracer::Drain() order). Timelines are
  /// keyed by task id, so a trace mixing several apps must not reuse a
  /// task id across them.
  explicit TraceAnalyzer(std::vector<TraceEvent> events);

  /// Timelines of every completed task attempt, keyed by task id.
  const std::map<int64_t, TaskTimeline>& tasks() const { return tasks_; }

  /// Longest chain through the recorded dependency graph by total
  /// segment weight (dynamic programming over the DAG; cycles — which
  /// a well-formed trace cannot contain — are broken defensively).
  CriticalPathReport CriticalPath() const;

  const std::vector<TraceEvent>& events() const { return events_; }
  double makespan() const { return makespan_; }

 private:
  void Build();

  std::vector<TraceEvent> events_;
  std::map<int64_t, TaskTimeline> tasks_;
  double makespan_ = 0.0;
};

}  // namespace hiway

#endif  // HIWAY_OBS_TRACE_ANALYZER_H_
