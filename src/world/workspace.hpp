// Reusable scenario workspace.
//
// run_scenario() builds a whole world — stimulus model, arrival map,
// simulator, radio fabric, node table — and throws it away after one run.
// Campaigns run thousands of replications whose configs differ only by
// seed, so nearly all of that construction repeats byte-identical work:
// the stimulus model does not depend on the seed at all (for the PDE model
// that is a full solver integration), and every buffer can be re-seeded in
// place instead of reallocated.
//
// A Workspace owns the world's storage across runs: the simulator's event
// slab, the network's neighbor lists, the node and outcome tables, the
// deployment and arrival-map buffers, and a stimulus-model cache keyed by
// the config's stimulus section. Each run() re-seeds and resets them.
// Results are guaranteed byte-identical to a fresh run_scenario() — the
// reuse is purely allocational — and tests/world/test_workspace.cpp
// enforces it.
//
// A Workspace is single-threaded like the simulations it hosts; give each
// worker thread its own (exp::run_campaign and world::run_replicated do).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "metrics/report.hpp"
#include "net/network.hpp"
#include "node/sensor_node.hpp"
#include "sim/simulator.hpp"
#include "stimulus/arrival_map.hpp"
#include "world/scenario.hpp"

namespace pas::world {

/// True when `a` and `b` configure the same stimulus (kind plus the
/// sub-config that kind reads) — the condition under which a built stimulus
/// model can be shared between runs. Exposed for tests.
[[nodiscard]] bool same_stimulus(const ScenarioConfig& a,
                                 const ScenarioConfig& b) noexcept;

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Runs one complete simulation; equivalent to run_scenario(config), but
  /// reusing this workspace's storage and cached stimulus model.
  [[nodiscard]] RunResult run(const ScenarioConfig& config);

  /// The campaign hot path: like run() but without copying positions,
  /// outcomes or trace into a result (traces are disabled). The reference
  /// is valid until the next run on this workspace.
  [[nodiscard]] const metrics::RunMetrics& run_metrics(
      const ScenarioConfig& config);

  /// Deployment attempts consumed by the most recent run.
  [[nodiscard]] std::size_t deployment_attempts() const noexcept {
    return deployment_attempts_;
  }

 private:
  /// Returns the cached stimulus model, rebuilding it when the stimulus
  /// section of `config` differs from the cached key.
  const stimulus::StimulusModel& model_for(const ScenarioConfig& config);

  /// Builds the world for `config` and runs it to the horizon; fills
  /// positions_/nodes_/outcomes_/metrics_. `trace_log` may be null.
  void execute(const ScenarioConfig& config, sim::TraceLog* trace_log);

  sim::Simulator simulator_;
  std::optional<net::Network> network_;
  std::optional<net::SlottedLplMac> mac_;
  std::optional<net::Collection> collection_;

  std::unique_ptr<stimulus::StimulusModel> model_;
  ScenarioConfig model_key_;
  bool model_valid_ = false;

  std::vector<geom::Vec2> positions_;
  stimulus::ArrivalMap arrivals_;
  std::vector<node::SensorNode> nodes_;
  std::vector<metrics::NodeOutcome> outcomes_;
  metrics::RunMetrics metrics_;
  std::size_t deployment_attempts_ = 1;
};

}  // namespace pas::world
