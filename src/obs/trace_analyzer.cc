#include "src/obs/trace_analyzer.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>

#include "src/common/strings.h"

namespace hiway {

namespace {
bool NameIs(const TraceEvent& ev, const char* name) {
  return std::strcmp(ev.name, name) == 0;
}
}  // namespace

double TaskTimeline::WaitSeconds() const {
  if (ready_at < 0.0 || allocated_at < 0.0) return 0.0;
  return std::max(0.0, allocated_at - ready_at);
}

double TaskTimeline::LocalizeSeconds() const {
  if (allocated_at < 0.0 || exec_start_at < 0.0) return 0.0;
  return std::max(0.0, exec_start_at - allocated_at);
}

double TaskTimeline::ComputeSeconds() const {
  if (exec_start_at < 0.0 || finished_at < 0.0) return 0.0;
  return std::max(0.0, finished_at - exec_start_at - stage_seconds);
}

double TaskTimeline::TotalSeconds() const {
  return WaitSeconds() + DataSeconds() + ComputeSeconds();
}

std::string CriticalPathReport::Summary() const {
  return StrFormat(
      "critical path: %zu task(s), %.1fs total = %.1fs wait (%.0f%%) + "
      "%.1fs data (%.0f%%) + %.1fs compute (%.0f%%); makespan %.1fs",
      steps.size(), total_s, wait_s, WaitShare() * 100.0, data_s,
      DataShare() * 100.0, compute_s, ComputeShare() * 100.0, makespan_s);
}

TraceAnalyzer::TraceAnalyzer(std::vector<TraceEvent> events)
    : events_(std::move(events)) {
  Build();
}

void TraceAnalyzer::Build() {
  // Per-task attempt state while scanning in global order. A retry
  // re-marks the task ready, so "last writer wins": the timeline that
  // survives is the attempt that actually completed.
  struct Open {
    double ready_at = -1.0;
    double allocated_at = -1.0;
    double exec_start_at = -1.0;
    double stage_seconds = 0.0;
    int attempts = 0;
  };
  std::map<int64_t, Open> open;
  std::map<int64_t, std::set<int64_t>> deps;
  double wf_start = -1.0;
  for (const TraceEvent& ev : events_) {
    if (ev.category == SpanCategory::kWorkflow) {
      if (ev.phase == SpanPhase::kBegin && wf_start < 0.0) {
        wf_start = ev.timestamp;
      } else if (ev.phase == SpanPhase::kEnd && wf_start >= 0.0) {
        makespan_ = std::max(makespan_, ev.timestamp - wf_start);
      }
      continue;
    }
    if (ev.category != SpanCategory::kTask || ev.task < 0) continue;
    Open& o = open[ev.task];
    if (NameIs(ev, "task_ready") && ev.phase == SpanPhase::kInstant) {
      o.ready_at = ev.timestamp;
      // A fresh attempt invalidates the previous one's progress.
      o.allocated_at = -1.0;
      o.exec_start_at = -1.0;
      o.stage_seconds = 0.0;
    } else if (NameIs(ev, "localize")) {
      if (ev.phase == SpanPhase::kBegin) {
        o.allocated_at = ev.timestamp;
        ++o.attempts;
      } else if (ev.phase == SpanPhase::kEnd) {
        o.exec_start_at = ev.timestamp;
      }
    } else if (NameIs(ev, "execute")) {
      if (ev.phase == SpanPhase::kBegin) {
        if (o.exec_start_at < 0.0) o.exec_start_at = ev.timestamp;
      } else if (ev.phase == SpanPhase::kEnd) {
        TaskTimeline t;
        t.task = ev.task;
        t.app = ev.app;
        t.node = ev.node;
        t.ready_at = o.ready_at;
        t.allocated_at = o.allocated_at;
        t.exec_start_at = o.exec_start_at;
        t.finished_at = ev.timestamp;
        t.stage_seconds = o.stage_seconds;
        t.attempts = std::max(1, o.attempts);
        tasks_[ev.task] = std::move(t);
      }
    } else if (NameIs(ev, "stage_in") || NameIs(ev, "stage_out")) {
      o.stage_seconds += ev.value;
      // Stage instants are recorded at attempt completion — after the
      // execute-end event of the same attempt. Patch the completed
      // timeline too.
      auto it = tasks_.find(ev.task);
      if (it != tasks_.end() && it->second.finished_at <= ev.timestamp) {
        it->second.stage_seconds += ev.value;
      }
    } else if (NameIs(ev, "task_dep") && ev.aux >= 0) {
      deps[ev.task].insert(ev.aux);
    }
  }
  for (auto& [id, t] : tasks_) {
    auto it = deps.find(id);
    if (it == deps.end()) continue;
    for (int64_t d : it->second) {
      if (tasks_.count(d) != 0 && d != id) t.deps.push_back(d);
    }
  }
}

CriticalPathReport TraceAnalyzer::CriticalPath() const {
  CriticalPathReport report;
  report.makespan_s = makespan_;
  // Longest chain by total segment weight: cp(t) = weight(t) +
  // max over deps cp(d). Memoised DFS; a visiting set breaks cycles
  // (impossible in a well-formed trace, cheap to guard against).
  std::map<int64_t, double> best;
  std::map<int64_t, int64_t> via;  // argmax predecessor, -1 = none
  std::set<int64_t> visiting;
  std::function<double(int64_t)> cp = [&](int64_t id) -> double {
    auto memo = best.find(id);
    if (memo != best.end()) return memo->second;
    if (!visiting.insert(id).second) return 0.0;  // cycle guard
    const TaskTimeline& t = tasks_.at(id);
    double longest = 0.0;
    int64_t argmax = -1;
    for (int64_t d : t.deps) {
      double c = cp(d);
      if (c > longest) {
        longest = c;
        argmax = d;
      }
    }
    visiting.erase(id);
    double total = t.TotalSeconds() + longest;
    best[id] = total;
    via[id] = argmax;
    return total;
  };
  int64_t tail = -1;
  double tail_cp = -1.0;
  for (const auto& [id, t] : tasks_) {
    double c = cp(id);
    if (c > tail_cp) {
      tail_cp = c;
      tail = id;
    }
  }
  if (tail < 0) return report;
  std::vector<int64_t> chain;
  for (int64_t id = tail; id >= 0; id = via[id]) chain.push_back(id);
  std::reverse(chain.begin(), chain.end());
  for (int64_t id : chain) {
    const TaskTimeline& t = tasks_.at(id);
    CriticalPathStep step;
    step.task = id;
    step.wait_s = t.WaitSeconds();
    step.data_s = t.DataSeconds();
    step.compute_s = t.ComputeSeconds();
    report.steps.push_back(step);
    report.wait_s += step.wait_s;
    report.data_s += step.data_s;
    report.compute_s += step.compute_s;
  }
  report.total_s = report.wait_s + report.data_s + report.compute_s;
  return report;
}

}  // namespace hiway
