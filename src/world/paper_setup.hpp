// The canonical experiment setup of the paper's §4.
//
// "We set up 30 nodes; and each node has a transmission range of 10 m."
// The paper does not publish the field size or front speed; we fix a
// 40 m × 40 m region with the stimulus released near one corner and an
// anisotropic front of ~0.5 m/s mean speed, which reaches the far corner
// well inside the simulated 150 s. The tests and examples build on this, and
// examples/paper/*.json spell its radial variant out in JSON, so the figures
// share one world.
#pragma once

#include <cstdint>

#include "world/scenario.hpp"

namespace pas::world {

struct PaperSetupOverrides {
  core::Policy policy = core::Policy::kPas;
  /// Maximum sleeping interval (Figs 4/6 x-axis).
  sim::Duration max_sleep_s = 20.0;
  /// Alert-time threshold T_alert (Figs 5/7 x-axis).
  sim::Duration alert_threshold_s = 20.0;
  std::uint64_t seed = 1;
  StimulusKind stimulus = StimulusKind::kRadial;
};

/// 30 nodes, 10 m range, 40×40 m field, anisotropic radial front from the
/// corner, Telos power numbers, 150 s horizon.
[[nodiscard]] ScenarioConfig paper_scenario(const PaperSetupOverrides& o = {});

}  // namespace pas::world
