#include "src/sim/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/strings.h"
#include "src/sim/engine.h"

namespace hiway {
namespace {

Result<FaultType> FaultTypeFromString(std::string_view token) {
  if (token == "kill-node") return FaultType::kKillNode;
  if (token == "kill-am-node") return FaultType::kKillAmNode;
  if (token == "am-crash") return FaultType::kAmCrash;
  if (token == "fail-container") return FaultType::kFailContainer;
  if (token == "hdfs-error") return FaultType::kHdfsError;
  if (token == "spot-revoke") return FaultType::kSpotRevoke;
  return Status::InvalidArgument(
      StrFormat("unknown fault type '%.*s' (expected kill-node, "
                "kill-am-node, am-crash, fail-container, hdfs-error, or "
                "spot-revoke)",
                static_cast<int>(token.size()), token.data()));
}

Result<FaultSpec> ParseClause(std::string_view clause) {
  FaultSpec spec;
  bool has_warn = false;
  std::vector<std::string> parts = StrSplit(clause, ':');
  std::string_view head = StrTrim(parts[0]);
  std::string_view type_token = head;
  if (size_t at_pos = head.find('@'); at_pos != std::string_view::npos) {
    type_token = StrTrim(head.substr(0, at_pos));
    auto at = ParseDouble(StrTrim(head.substr(at_pos + 1)));
    if (!at.ok()) {
      return at.status().WithContext(
          StrFormat("bad @time in fault clause '%.*s'",
                    static_cast<int>(clause.size()), clause.data()));
    }
    if (!std::isfinite(*at)) {
      return Status::InvalidArgument(
          StrFormat("@time in fault clause '%.*s' must be finite",
                    static_cast<int>(clause.size()), clause.data()));
    }
    spec.at = *at;
  }
  auto type = FaultTypeFromString(type_token);
  if (!type.ok()) return type.status();
  spec.type = *type;

  for (size_t i = 1; i < parts.size(); ++i) {
    std::string_view kv = StrTrim(parts[i]);
    size_t eq = kv.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(
          StrFormat("fault param '%.*s' is not key=value",
                    static_cast<int>(kv.size()), kv.data()));
    }
    std::string_view key = StrTrim(kv.substr(0, eq));
    std::string_view value = StrTrim(kv.substr(eq + 1));
    auto number = ParseDouble(value);
    if (!number.ok()) {
      return number.status().WithContext(
          StrFormat("bad value for fault param '%.*s'",
                    static_cast<int>(key.size()), key.data()));
    }
    if (!std::isfinite(*number)) {
      return Status::InvalidArgument(
          StrFormat("fault param %.*s=%.*s must be finite",
                    static_cast<int>(key.size()), key.data(),
                    static_cast<int>(value.size()), value.data()));
    }
    // node= / sub= are ids: require integral values in range before casting
    // (a bare static_cast from e.g. node=1e300 is undefined behaviour).
    auto as_id = [&](double limit) -> Result<int64_t> {
      if (*number < 0 || *number > limit ||
          *number != std::floor(*number)) {
        return Status::InvalidArgument(StrFormat(
            "fault param %.*s=%.*s is not an integer id in [0, %.0f]",
            static_cast<int>(key.size()), key.data(),
            static_cast<int>(value.size()), value.data(), limit));
      }
      return static_cast<int64_t>(*number);
    };
    if (key == "at") {
      spec.at = *number;
    } else if (key == "rate") {
      spec.rate = *number;
    } else if (key == "every") {
      spec.every = *number;
    } else if (key == "until") {
      spec.until = *number;
    } else if (key == "node") {
      HIWAY_ASSIGN_OR_RETURN(int64_t id, as_id(2147483647.0));
      spec.node = static_cast<NodeId>(id);
    } else if (key == "sub") {
      HIWAY_ASSIGN_OR_RETURN(int64_t id, as_id(9e15));
      spec.submission = id;
    } else if (key == "warn") {
      spec.warn = *number;
      has_warn = true;
    } else {
      return Status::InvalidArgument(
          StrFormat("unknown fault param '%.*s' (expected at, node, sub, "
                    "rate, every, until, or warn)",
                    static_cast<int>(key.size()), key.data()));
    }
  }

  if (has_warn && spec.type != FaultType::kSpotRevoke) {
    return Status::InvalidArgument(StrFormat(
        "fault param warn= only applies to spot-revoke, not '%s'",
        ToString(spec.type)));
  }
  if (has_warn && spec.warn < 0.0) {
    return Status::InvalidArgument("fault param warn= must be >= 0");
  }
  if (spec.type == FaultType::kHdfsError) {
    if (spec.rate <= 0.0) {
      return Status::InvalidArgument(
          "hdfs-error requires rate=<probability per read>");
    }
  } else if (spec.at < 0.0 && spec.rate <= 0.0) {
    return Status::InvalidArgument(
        StrFormat("fault clause '%s' needs @time/at= (one-shot) or rate= "
                  "(recurring)",
                  ToString(spec.type)));
  }
  if (spec.rate > 1.0) {
    return Status::InvalidArgument(
        StrFormat("fault param rate=%g is not a probability (must be <= 1)",
                  spec.rate));
  }
  if (spec.rate > 0.0 && spec.every <= 0.0) {
    return Status::InvalidArgument("fault param every= must be > 0");
  }
  return spec;
}

}  // namespace

const char* ToString(FaultType type) {
  switch (type) {
    case FaultType::kKillNode:
      return "kill-node";
    case FaultType::kKillAmNode:
      return "kill-am-node";
    case FaultType::kAmCrash:
      return "am-crash";
    case FaultType::kFailContainer:
      return "fail-container";
    case FaultType::kHdfsError:
      return "hdfs-error";
    case FaultType::kSpotRevoke:
      return "spot-revoke";
  }
  return "unknown";
}

Result<std::vector<FaultSpec>> ParseFaultSpecs(std::string_view text) {
  std::vector<FaultSpec> specs;
  for (const std::string& clause : StrSplit(text, ',')) {
    if (StrTrim(clause).empty()) continue;
    auto spec = ParseClause(clause);
    if (!spec.ok()) return spec.status();
    specs.push_back(*spec);
  }
  if (specs.empty()) {
    return Status::InvalidArgument("empty fault spec");
  }
  return specs;
}

FaultInjector::FaultInjector(SimEngine* engine, uint64_t seed)
    : engine_(engine), rng_(seed) {}

Status FaultInjector::Arm(std::vector<FaultSpec> specs) {
  for (const FaultSpec& spec : specs) {
    armed_.push_back(spec);
    if (spec.type == FaultType::kHdfsError) {
      read_fault_specs_.push_back(spec);
      continue;
    }
    if (spec.at >= 0.0) {
      engine_->ScheduleAt(spec.at, [this, spec] { Fire(spec); });
    }
    if (spec.rate > 0.0) {
      Recur(spec, /*seen_activity=*/false);
    }
  }
  return Status::OK();
}

Status FaultInjector::ArmSpec(std::string_view text) {
  auto specs = ParseFaultSpecs(text);
  if (!specs.ok()) return specs.status();
  return Arm(*std::move(specs));
}

bool FaultInjector::ShouldFailRead(const std::string& path, NodeId node) {
  (void)path;
  (void)node;
  double now = engine_->Now();
  for (const FaultSpec& spec : read_fault_specs_) {
    if (spec.at >= 0.0 && now < spec.at) continue;
    if (spec.until >= 0.0 && now > spec.until) continue;
    if (rng_.NextDouble() < spec.rate) {
      ++counters_.read_faults;
      return true;
    }
  }
  return false;
}

void FaultInjector::Fire(const FaultSpec& spec) {
  switch (spec.type) {
    case FaultType::kKillNode: {
      if (!handlers_.kill_node) return;
      std::optional<NodeId> target = spec.node;
      if (spec.node == kInvalidNode) target = Draw(handlers_.list_nodes);
      if (target && handlers_.kill_node(*target)) ++counters_.node_kills;
      return;
    }
    case FaultType::kKillAmNode: {
      if (!handlers_.kill_node) return;
      std::optional<NodeId> target;
      if (spec.submission < 0) {
        target = Draw(handlers_.list_am_nodes);
      } else if (handlers_.am_node_of) {
        target = handlers_.am_node_of(spec.submission);
      }
      if (target.value_or(kInvalidNode) != kInvalidNode &&
          handlers_.kill_node(*target)) {
        ++counters_.node_kills;
      }
      return;
    }
    case FaultType::kAmCrash: {
      if (!handlers_.crash_am) return;
      std::optional<int64_t> target = spec.submission;
      if (spec.submission < 0) target = Draw(handlers_.list_submissions);
      if (target && handlers_.crash_am(*target)) ++counters_.am_crashes;
      return;
    }
    case FaultType::kFailContainer: {
      if (!handlers_.fail_container) return;
      std::optional<int64_t> target = Draw(handlers_.list_containers);
      if (!target) return;
      handlers_.fail_container(*target);
      ++counters_.container_kills;
      return;
    }
    case FaultType::kSpotRevoke: {
      if (!handlers_.revoke_node) return;
      std::optional<NodeId> target = spec.node;
      if (spec.node == kInvalidNode) {
        // Prefer the fleet's spot partition; any worker is revocable
        // when no partition is declared.
        target = Draw(handlers_.list_spot_nodes);
        if (!target) target = Draw(handlers_.list_nodes);
      }
      double warn = spec.warn >= 0.0 ? spec.warn : default_revoke_warning_s_;
      if (target && handlers_.revoke_node(*target, warn)) {
        ++counters_.spot_revocations;
      }
      return;
    }
    case FaultType::kHdfsError:
      return;  // consulted per-read via ShouldFailRead, never fired
  }
}

void FaultInjector::Recur(FaultSpec spec, bool seen_activity) {
  engine_->ScheduleAfter(spec.every, [this, spec, seen_activity] {
    if (spec.until >= 0.0 && engine_->Now() > spec.until) return;
    bool active = handlers_.active ? handlers_.active() : true;
    if (!active) {
      // Quiesced after having run: the workload is done, stop the chain.
      // Not yet started: keep polling without firing.
      if (seen_activity) return;
      Recur(spec, /*seen_activity=*/false);
      return;
    }
    if (spec.rate >= 1.0 || rng_.NextDouble() < spec.rate) Fire(spec);
    Recur(spec, /*seen_activity=*/true);
  });
}

}  // namespace hiway
