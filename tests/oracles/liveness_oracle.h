// Test-only reference for AM liveness: the polling loop the RM's heartbeat
// lease replaced.
//
// The AM beats when it registers and then every kAmHeartbeatS, each beat
// scheduling the next one. The RM arms a check at first beat +
// kAmLivenessTimeoutS; a check that finds a beat within the timeout
// re-arms itself at last beat + timeout, otherwise it fails the
// application. Every live AM therefore costs one engine event per beat
// plus one per check. ResourceManager::AmSilent instead schedules one
// event, when the AM dies, at the time this chain would fail it. The two
// agree bit for bit except for a crash queued within the last beat period
// that lands exactly on a beat: here that beat fires first, while the
// lease counts it as missed (see yarn_test.cc, LivenessLeaseTest).

#ifndef HIWAY_TESTS_ORACLES_LIVENESS_ORACLE_H_
#define HIWAY_TESTS_ORACLES_LIVENESS_ORACLE_H_

#include <functional>
#include <string>
#include <utility>

#include "src/common/strings.h"
#include "src/sim/engine.h"
#include "src/yarn/yarn.h"

namespace hiway {

class PollingLivenessOracle {
 public:
  using FailFn = std::function<void(const std::string& reason)>;

  PollingLivenessOracle(SimEngine* engine, FailFn fail)
      : engine_(engine), fail_(std::move(fail)) {}
  // Scheduled events hold `this`.
  PollingLivenessOracle(const PollingLivenessOracle&) = delete;
  PollingLivenessOracle& operator=(const PollingLivenessOracle&) = delete;

  /// The AM registers now and sends its first beat.
  void Register() { Beat(); }
  /// The AM process dies: no further beats.
  void Crash() {
    crashed_ = true;
    if (beat_event_ != 0) engine_->Cancel(beat_event_);
  }

 private:
  void Beat() {
    if (crashed_) return;
    last_beat_ = engine_->Now();
    if (!check_armed_) {
      check_armed_ = true;
      ArmCheck(last_beat_ + kAmLivenessTimeoutS);
    }
    beat_event_ = engine_->ScheduleAfter(kAmHeartbeatS, [this] { Beat(); });
  }

  void ArmCheck(double at) {
    engine_->ScheduleAt(at, [this] {
      double deadline = last_beat_ + kAmLivenessTimeoutS;
      if (engine_->Now() + 1e-9 < deadline) {
        ArmCheck(deadline);  // beats kept coming
        return;
      }
      fail_(StrFormat("AM heartbeat timeout (%.1fs)", kAmLivenessTimeoutS));
    });
  }

  SimEngine* engine_;
  FailFn fail_;
  EventId beat_event_ = 0;
  double last_beat_ = -1.0;
  bool check_armed_ = false;
  bool crashed_ = false;
};

}  // namespace hiway

#endif  // HIWAY_TESTS_ORACLES_LIVENESS_ORACLE_H_
