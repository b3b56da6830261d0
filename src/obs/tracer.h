// Execution tracing (the observability layer the paper's evaluation
// implies: Figs. 4-9 reason about makespans through container timelines
// and per-task runtimes, but aggregate counters cannot explain *why* a
// number is what it is).
//
// A Tracer records typed span events — workflow → task attempt →
// container lifecycle (requested / allocated / localized / running /
// completed), plus RM scheduling passes, preemption kills, AM failover
// and provenance appends — timestamped with the simulated clock. The
// write path is designed to disappear: every producer runs on the
// simulation thread, so recording is a plain append to one bounded
// buffer (no locks, no atomics), and a disabled tracer costs one load
// and a branch per call site. Analysis is offline: Drain() orders the
// buffer for the TraceAnalyzer (src/obs/trace_analyzer.h) and the
// exporters (src/obs/exporters.h). See docs/observability.md.

#ifndef HIWAY_OBS_TRACER_H_
#define HIWAY_OBS_TRACER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/engine.h"

namespace hiway {

/// What subsystem a span belongs to (the Chrome-trace "cat" field).
enum class SpanCategory : uint8_t {
  kWorkflow,    // one workflow run (AM attempt), submit -> terminal
  kTask,        // task-attempt lifecycle: ready/localize/execute/...
  kContainer,   // RM container lifecycle: requested/allocated/released
  kScheduler,   // RM allocation passes, AM scheduling decisions
  kPreemption,  // guarantee-restoring container kills
  kFailover,    // AM death, node loss, recovery attempts
  kProvenance,  // shard appends
  kCache,       // result-cache hits/seals, staging-cache hits/evictions
  kMembership,  // node join/drain/decommission, autoscaling, spot revokes
};

const char* ToString(SpanCategory category);

/// Span phase. Begin/End pairs (matched by category, name, and the
/// task/container id) form durations; kInstant marks a point in time.
enum class SpanPhase : uint8_t { kBegin, kEnd, kInstant };

/// One trace record. Plain data, fixed size, no heap: recording copies
/// it into a slot of the tracer's buffer. `name` MUST point to a string
/// with static storage duration (a literal) — the buffer stores the
/// pointer, not the bytes.
struct TraceEvent {
  SpanCategory category = SpanCategory::kWorkflow;
  SpanPhase phase = SpanPhase::kInstant;
  const char* name = "";
  /// Simulated-clock timestamp, seconds.
  double timestamp = 0.0;
  /// Global record order (stamped by the tracer; ties in `timestamp`
  /// resolve by this, keeping drains deterministic).
  uint64_t seq = 0;
  // Identity of the thing the event is about; -1 = not applicable.
  int64_t app = -1;
  int64_t container = -1;
  int64_t task = -1;
  int64_t node = -1;
  /// Numeric payload: a duration in seconds, a count, a byte volume,
  /// or a peer task id — the event name says which.
  double value = 0.0;
  /// Secondary integer payload (bytes, dependency source, attempt no).
  int64_t aux = -1;
};

struct TracerStats {
  uint64_t recorded = 0;  // events accepted since construction / Clear()
  uint64_t dropped = 0;   // events overwritten (buffer capacity exceeded)
};

/// The recording front door. One Tracer per Deployment; disabled by
/// default (a disabled tracer's Record is one load and a branch, so call
/// sites need no guards). Not thread-safe: every producer runs on the
/// thread that drives the deployment's SimEngine.
class Tracer {
 public:
  static constexpr size_t kDefaultRingCapacity = 1 << 18;

  /// `clock` stamps events that carry no explicit timestamp; nullptr
  /// leaves them at 0 (callers then pass timestamps themselves).
  /// `ring_capacity` bounds the buffer: beyond it the oldest events are
  /// overwritten and counted as dropped.
  explicit Tracer(const SimEngine* clock = nullptr,
                  size_t ring_capacity = kDefaultRingCapacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Records one event (no-op while disabled). Stamps the sequence
  /// number, and the clock time when `event.timestamp` is unset (0) and
  /// a clock exists. `event.name` must be a static string.
  void Record(TraceEvent event);

  // Convenience builders for the common shapes.
  void Instant(SpanCategory category, const char* name, int64_t app = -1,
               int64_t container = -1, int64_t task = -1, int64_t node = -1,
               double value = 0.0, int64_t aux = -1);
  void Begin(SpanCategory category, const char* name, int64_t app = -1,
             int64_t container = -1, int64_t task = -1, int64_t node = -1);
  void End(SpanCategory category, const char* name, int64_t app = -1,
           int64_t container = -1, int64_t task = -1, int64_t node = -1,
           double value = 0.0);

  /// The surviving events ordered by (timestamp, seq) — the global
  /// record order. Events stay in the buffer, so repeated drains return
  /// the same (growing) history.
  std::vector<TraceEvent> Drain() const;

  TracerStats Stats() const;

  /// Forgets all recorded events and restarts the sequence numbers.
  void Clear();

 private:
  const SimEngine* clock_;
  const size_t capacity_;
  bool enabled_ = false;
  /// Events recorded since Clear(); the next event's seq. Event `seq`
  /// lives in slot seq % capacity_.
  uint64_t recorded_ = 0;
  /// Grows on demand up to capacity_, then wraps.
  std::vector<TraceEvent> events_;
};

}  // namespace hiway

#endif  // HIWAY_OBS_TRACER_H_
