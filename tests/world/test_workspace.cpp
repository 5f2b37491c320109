#include "world/workspace.hpp"

#include <gtest/gtest.h>

#include "world/paper_setup.hpp"
#include "world/sweep.hpp"

namespace pas::world {
namespace {

ScenarioConfig small_config(core::Policy policy, StimulusKind stimulus,
                            std::uint64_t seed) {
  PaperSetupOverrides o;
  o.policy = policy;
  o.stimulus = stimulus;
  o.seed = seed;
  auto cfg = paper_scenario(o);
  cfg.duration_s = 60.0;  // keep the suite fast
  return cfg;
}

void expect_same_metrics(const metrics::RunMetrics& a,
                         const metrics::RunMetrics& b) {
  // Reuse must be purely allocational: every number matches bit-for-bit.
  EXPECT_EQ(a.node_count, b.node_count);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.missed, b.missed);
  EXPECT_EQ(a.censored, b.censored);
  EXPECT_DOUBLE_EQ(a.avg_delay_s, b.avg_delay_s);
  EXPECT_DOUBLE_EQ(a.max_delay_s, b.max_delay_s);
  EXPECT_DOUBLE_EQ(a.avg_energy_j, b.avg_energy_j);
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_DOUBLE_EQ(a.avg_active_fraction, b.avg_active_fraction);
  EXPECT_EQ(a.network.broadcasts, b.network.broadcasts);
  EXPECT_EQ(a.network.deliveries, b.network.deliveries);
  EXPECT_EQ(a.protocol.wakeups, b.protocol.wakeups);
  EXPECT_EQ(a.protocol.requests_sent, b.protocol.requests_sent);
  EXPECT_EQ(a.protocol.responses_sent, b.protocol.responses_sent);
}

TEST(Workspace, ReusedRunsMatchFreshRunsAcrossSeeds) {
  Workspace ws;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto cfg = small_config(core::Policy::kPas, StimulusKind::kRadial, seed);
    const auto reused = ws.run(cfg);
    const auto fresh = run_scenario(cfg);
    expect_same_metrics(reused.metrics, fresh.metrics);
    EXPECT_EQ(reused.positions, fresh.positions);
    EXPECT_EQ(reused.deployment_attempts, fresh.deployment_attempts);
  }
}

TEST(Workspace, ReusedRunsMatchFreshAcrossPolicyAndStimulusSwitches) {
  // Worst case for stale state: consecutive runs that differ in policy,
  // stimulus kind, and node count.
  Workspace ws;
  std::vector<ScenarioConfig> configs = {
      small_config(core::Policy::kPas, StimulusKind::kRadial, 3),
      small_config(core::Policy::kNeverSleep, StimulusKind::kRadial, 3),
      small_config(core::Policy::kSas, StimulusKind::kPlume, 4),
      small_config(core::Policy::kPas, StimulusKind::kTwoSources, 5),
      small_config(core::Policy::kPas, StimulusKind::kRadial, 3),
  };
  configs[4].deployment.count = 45;  // resize the world mid-sequence
  for (const auto& cfg : configs) {
    const auto reused = ws.run(cfg);
    const auto fresh = run_scenario(cfg);
    expect_same_metrics(reused.metrics, fresh.metrics);
    EXPECT_EQ(reused.positions, fresh.positions);
  }
}

TEST(Workspace, RunMetricsMatchesRun) {
  Workspace a;
  Workspace b;
  const auto cfg = small_config(core::Policy::kPas, StimulusKind::kPlume, 9);
  const auto& light = a.run_metrics(cfg);
  const auto full = b.run(cfg);
  expect_same_metrics(light, full.metrics);
}

TEST(Workspace, TraceMatchesFreshRun) {
  Workspace ws;
  auto cfg = small_config(core::Policy::kPas, StimulusKind::kRadial, 7);
  cfg.enable_trace = true;
  // Prime the workspace with a different seed first so the traced run
  // executes against reused buffers.
  auto primer = cfg;
  primer.seed = 99;
  (void)ws.run(primer);
  const auto reused = ws.run(cfg);
  const auto fresh = run_scenario(cfg);
  ASSERT_EQ(reused.trace.size(), fresh.trace.size());
  for (std::size_t i = 0; i < reused.trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(reused.trace.events()[i].time, fresh.trace.events()[i].time);
    EXPECT_EQ(reused.trace.events()[i].category, fresh.trace.events()[i].category);
    EXPECT_EQ(reused.trace.events()[i].node, fresh.trace.events()[i].node);
    EXPECT_EQ(reused.trace.events()[i].kind, fresh.trace.events()[i].kind);
    EXPECT_EQ(sim::format_event(reused.trace.events()[i]),
              sim::format_event(fresh.trace.events()[i]));
  }
}

TEST(Workspace, SameStimulusKeysTheModelCache) {
  const auto radial = small_config(core::Policy::kPas, StimulusKind::kRadial, 1);
  auto radial2 = radial;
  EXPECT_TRUE(same_stimulus(radial, radial2));

  radial2.seed = 42;
  radial2.protocol.alert_threshold_s = 5.0;
  EXPECT_TRUE(same_stimulus(radial, radial2))
      << "seed/protocol changes must not invalidate the stimulus cache";

  auto faster = radial;
  faster.radial.base_speed *= 2.0;
  EXPECT_FALSE(same_stimulus(radial, faster));

  auto plume = radial;
  plume.stimulus = StimulusKind::kPlume;
  EXPECT_FALSE(same_stimulus(radial, plume));

  // Kinds only compare the sub-config they actually read: a plume config
  // change is invisible to two radial scenarios...
  auto radial_with_plume_noise = radial;
  radial_with_plume_noise.plume.mass *= 3.0;
  EXPECT_TRUE(same_stimulus(radial, radial_with_plume_noise));

  // ...while two-source scenarios read the second radial config too.
  auto two_a = small_config(core::Policy::kPas, StimulusKind::kTwoSources, 1);
  auto two_b = two_a;
  two_b.radial_second.start_time += 10.0;
  EXPECT_FALSE(same_stimulus(two_a, two_b));
}

TEST(Workspace, ReplicationHelpersAgree) {
  const auto cfg = small_config(core::Policy::kSas, StimulusKind::kRadial, 2);
  Workspace ws;
  for (std::size_t r = 0; r < 4; ++r) {
    const auto with_ws = run_replication(ws, cfg, r);
    const auto without = run_replication(cfg, r);
    expect_same_metrics(with_ws, without);
  }
}

// The warm workspace's in-place deployment draws against the returning
// free functions, attempt by attempt: the same positions and attempt
// counts for every seed, kind and (changing) node count and region.
TEST(Workspace, DeploymentMatchesTheFreeFunctionLoop) {
  Workspace ws;
  std::size_t runs = 0;
  std::size_t attempts = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    for (const DeploymentKind kind :
         {DeploymentKind::kUniform, DeploymentKind::kGrid,
          DeploymentKind::kPoissonDisk}) {
      auto cfg = small_config(core::Policy::kNeverSleep, StimulusKind::kRadial,
                              seed);
      cfg.duration_s = 1.0;
      cfg.deployment.kind = kind;
      cfg.deployment.count = seed % 2 == 0 ? 30 : 27;
      cfg.deployment.region = geom::Aabb::square(38.0 + 2.0 * (seed % 3));

      const sim::SeedSequence seeds(cfg.seed);
      std::vector<geom::Vec2> want;
      std::size_t want_attempts = 0;
      for (std::size_t a = 0; a < cfg.max_deployment_attempts; ++a) {
        sim::Pcg32 rng = seeds.stream(sim::SeedSequence::kDeployment, a);
        want = generate_deployment(cfg.deployment, rng);
        if (is_connected(want, cfg.radio.range_m)) {
          want_attempts = a + 1;
          break;
        }
      }
      if (want_attempts == 0) {
        EXPECT_THROW((void)ws.run(cfg), std::runtime_error) << "seed " << seed;
        continue;
      }
      const auto got = ws.run(cfg);
      ASSERT_EQ(got.positions, want) << "seed " << seed << " " << to_string(kind);
      ASSERT_EQ(got.deployment_attempts, want_attempts)
          << "seed " << seed << " " << to_string(kind);
      ++runs;
      attempts += want_attempts;
    }
  }
  // Retries happen, so later attempts reuse the buffers of earlier ones.
  EXPECT_GT(attempts, runs + runs / 2);
}

}  // namespace
}  // namespace pas::world
