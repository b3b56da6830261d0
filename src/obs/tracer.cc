#include "src/obs/tracer.h"

#include <algorithm>

namespace hiway {

const char* ToString(SpanCategory category) {
  switch (category) {
    case SpanCategory::kWorkflow: return "workflow";
    case SpanCategory::kTask: return "task";
    case SpanCategory::kContainer: return "container";
    case SpanCategory::kScheduler: return "scheduler";
    case SpanCategory::kPreemption: return "preemption";
    case SpanCategory::kFailover: return "failover";
    case SpanCategory::kProvenance: return "provenance";
    case SpanCategory::kCache: return "cache";
    case SpanCategory::kMembership: return "membership";
  }
  return "unknown";
}

Tracer::Tracer(const SimEngine* clock, size_t ring_capacity)
    : clock_(clock), capacity_(std::max<size_t>(ring_capacity, 1)) {}

void Tracer::Record(TraceEvent event) {
  if (!enabled()) return;
  if (event.timestamp == 0.0 && clock_ != nullptr) {
    event.timestamp = clock_->Now();
  }
  event.seq = recorded_++;
  if (events_.size() < capacity_) {
    // First chunk sized for a typical run, so that a traced run does not
    // pay for a dozen small reallocations.
    if (events_.empty()) events_.reserve(std::min<size_t>(capacity_, 4096));
    events_.push_back(event);
  } else {
    events_[static_cast<size_t>(event.seq % capacity_)] = event;
  }
}

void Tracer::Instant(SpanCategory category, const char* name, int64_t app,
                     int64_t container, int64_t task, int64_t node,
                     double value, int64_t aux) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.category = category;
  ev.phase = SpanPhase::kInstant;
  ev.name = name;
  ev.app = app;
  ev.container = container;
  ev.task = task;
  ev.node = node;
  ev.value = value;
  ev.aux = aux;
  Record(ev);
}

void Tracer::Begin(SpanCategory category, const char* name, int64_t app,
                   int64_t container, int64_t task, int64_t node) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.category = category;
  ev.phase = SpanPhase::kBegin;
  ev.name = name;
  ev.app = app;
  ev.container = container;
  ev.task = task;
  ev.node = node;
  Record(ev);
}

void Tracer::End(SpanCategory category, const char* name, int64_t app,
                 int64_t container, int64_t task, int64_t node, double value) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.category = category;
  ev.phase = SpanPhase::kEnd;
  ev.name = name;
  ev.app = app;
  ev.container = container;
  ev.task = task;
  ev.node = node;
  ev.value = value;
  Record(ev);
}

std::vector<TraceEvent> Tracer::Drain() const {
  // Rotate the oldest surviving event to the front: the buffer is then
  // in seq order, and a stable sort on timestamp keeps that order
  // among ties.
  std::vector<TraceEvent> all(events_);
  if (recorded_ > capacity_) {
    std::rotate(all.begin(),
                all.begin() + static_cast<ptrdiff_t>(recorded_ % capacity_),
                all.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.timestamp < b.timestamp;
                   });
  return all;
}

TracerStats Tracer::Stats() const {
  TracerStats stats;
  stats.recorded = recorded_;
  stats.dropped = recorded_ > capacity_ ? recorded_ - capacity_ : 0;
  return stats;
}

void Tracer::Clear() {
  events_.clear();
  recorded_ = 0;
}

}  // namespace hiway
