// Sleeping-interval schedules (§3.4).
//
// The paper prescribes a linearly increasing sleeping interval ("a
// specified sleeping strategy such as a linearly increasing sleeping
// time" — i.e. linear is one choice of a family). SleepSchedule implements
// the family: linear ramps (the paper's default, Δt per uneventful wake),
// exponential ramps (double each time, reaching the maximum much sooner),
// and fixed intervals (no ramp). examples/paper/sleep_ramp.json compares
// them.
#pragma once

#include <cassert>
#include <stdexcept>

#include "sim/time.hpp"

namespace pas::node {

enum class RampKind : unsigned char {
  kLinear,       // current + increment_s
  kExponential,  // current * factor
  kFixed,        // always initial_s
};

[[nodiscard]] constexpr const char* to_string(RampKind k) noexcept {
  switch (k) {
    case RampKind::kLinear: return "linear";
    case RampKind::kExponential: return "exponential";
    case RampKind::kFixed: return "fixed";
  }
  // Serializing "?" into campaign CSVs would silently poison resume keys;
  // fail loudly in debug builds instead.
  assert(!"to_string(RampKind): value outside the enum");
  return "?";
}

struct SleepSchedule {
  RampKind kind = RampKind::kLinear;
  /// First sleeping interval after (re-)entering safe state (s).
  sim::Duration initial_s = 1.0;
  /// Linear ramp: increment Δt added per uneventful wake-up (s).
  sim::Duration increment_s = 1.0;
  /// Exponential ramp: multiplier per uneventful wake-up.
  double factor = 2.0;
  /// Maximum sleeping interval (s); the ramp clamps here (§3.4: "their
  /// sleeping interval will stay when it reaches the upper bound").
  sim::Duration max_s = 20.0;

  void validate() const {
    if (initial_s <= 0.0) {
      throw std::invalid_argument("SleepSchedule: initial_s must be > 0");
    }
    if (increment_s < 0.0) {
      throw std::invalid_argument("SleepSchedule: increment_s must be >= 0");
    }
    if (factor < 1.0) {
      throw std::invalid_argument("SleepSchedule: factor must be >= 1");
    }
    if (max_s < initial_s) {
      throw std::invalid_argument("SleepSchedule: max_s must be >= initial_s");
    }
  }

  /// Interval following `current` (clamped at max_s).
  [[nodiscard]] sim::Duration next(sim::Duration current) const noexcept {
    sim::Duration grown = current;
    switch (kind) {
      case RampKind::kLinear: grown = current + increment_s; break;
      case RampKind::kExponential: grown = current * factor; break;
      case RampKind::kFixed: grown = initial_s; break;
    }
    return grown > max_s ? max_s : grown;
  }

  /// Number of uneventful wake-ups before the ramp saturates at max_s
  /// (0 for the fixed ramp; used by analysis and tests).
  [[nodiscard]] int steps_to_max() const noexcept {
    if (kind == RampKind::kFixed) return 0;
    int steps = 0;
    sim::Duration cur = initial_s;
    while (cur < max_s && steps < 1000000) {
      cur = next(cur);
      ++steps;
    }
    return steps;
  }
};

/// The paper's default schedule, kept as a named alias for readability in
/// code that means specifically the linear ramp.
using LinearSleepPolicy = SleepSchedule;

}  // namespace pas::node
