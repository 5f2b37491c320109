#include "stimulus/plume.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "sim/rng.hpp"
#include "stimulus/composite.hpp"
#include "stimulus/radial_front.hpp"

namespace pas::stimulus {
namespace {

GaussianPlumeConfig basic_config() {
  GaussianPlumeConfig cfg;
  cfg.source = {0.0, 0.0};
  cfg.mass = 400.0;
  cfg.diffusivity = 1.0;
  cfg.threshold = 0.05;
  cfg.start_time = 0.0;
  return cfg;
}

TEST(GaussianPlume, RejectsBadConfig) {
  auto cfg = basic_config();
  cfg.mass = 0.0;
  EXPECT_THROW(GaussianPlumeModel{cfg}, std::invalid_argument);
  cfg = basic_config();
  cfg.diffusivity = -1.0;
  EXPECT_THROW(GaussianPlumeModel{cfg}, std::invalid_argument);
  cfg = basic_config();
  cfg.threshold = 0.0;
  EXPECT_THROW(GaussianPlumeModel{cfg}, std::invalid_argument);
}

TEST(GaussianPlume, NothingBeforeRelease) {
  const GaussianPlumeModel model(basic_config());
  EXPECT_DOUBLE_EQ(model.concentration({1.0, 1.0}, 0.0), 0.0);
  EXPECT_FALSE(model.covered({0.0, 0.0}, 0.0));
}

TEST(GaussianPlume, ConcentrationIsGaussianInSpace) {
  const auto cfg = basic_config();
  const GaussianPlumeModel model(cfg);
  const sim::Time t = 5.0;
  const double c0 = model.concentration({0.0, 0.0}, t);
  const double c1 = model.concentration({2.0, 0.0}, t);
  // c(r)/c(0) = exp(−r²/(4Dt)).
  EXPECT_NEAR(c1 / c0, std::exp(-4.0 / (4.0 * cfg.diffusivity * t)), 1e-9);
}

TEST(GaussianPlume, MassConservedAnalytically) {
  // ∫c dA = Q for the Gaussian puff; check by coarse numeric integration.
  const auto cfg = basic_config();
  const GaussianPlumeModel model(cfg);
  const sim::Time t = 4.0;
  double mass = 0.0;
  const double h = 0.5;
  for (double x = -30.0; x < 30.0; x += h) {
    for (double y = -30.0; y < 30.0; y += h) {
      mass += model.concentration({x + h / 2, y + h / 2}, t) * h * h;
    }
  }
  EXPECT_NEAR(mass, cfg.mass, cfg.mass * 0.01);
}

TEST(GaussianPlume, CoveredRadiusGrowsThenShrinks) {
  const GaussianPlumeModel model(basic_config());
  const double early = model.covered_radius(1.0);
  const double mid = model.covered_radius(50.0);
  const sim::Time dissolve = model.dissolve_time();
  const double late = model.covered_radius(dissolve + 1.0);
  EXPECT_GT(mid, early);
  EXPECT_DOUBLE_EQ(late, 0.0);
}

TEST(GaussianPlume, DissolveTimeMatchesPeakThreshold) {
  const auto cfg = basic_config();
  const GaussianPlumeModel model(cfg);
  const sim::Time td = model.dissolve_time();
  // Just before dissolve the center is covered; just after it is not.
  EXPECT_TRUE(model.covered(cfg.source, td - 1.0));
  EXPECT_FALSE(model.covered(cfg.source, td + 1.0));
}

TEST(GaussianPlume, ArrivalTimeFindsGrowthPhaseCrossing) {
  const auto cfg = basic_config();
  const GaussianPlumeModel model(cfg);
  const geom::Vec2 p{5.0, 0.0};
  const sim::Time t = model.arrival_time(p, 1e4);
  ASSERT_LT(t, sim::kNever);
  EXPECT_FALSE(model.covered(p, t - 0.01));
  EXPECT_TRUE(model.covered(p, t + 0.01));
  // The covered radius at arrival equals the point's distance.
  EXPECT_NEAR(model.covered_radius(t), 5.0, 0.05);
}

TEST(GaussianPlume, PointsBeyondMaxRadiusNeverCovered) {
  const auto cfg = basic_config();
  const GaussianPlumeModel model(cfg);
  // Max covered radius over all time is bounded; a far point never covers.
  const geom::Vec2 far{100.0, 0.0};
  EXPECT_EQ(model.arrival_time(far, model.dissolve_time() * 2.0), sim::kNever);
}

TEST(GaussianPlume, WindAdvectsCenter) {
  auto cfg = basic_config();
  cfg.wind = {1.0, 0.0};
  const GaussianPlumeModel model(cfg);
  const sim::Time t = 10.0;
  const double downwind = model.concentration({10.0, 0.0}, t);
  const double at_origin = model.concentration({0.0, 0.0}, t);
  EXPECT_GT(downwind, at_origin);
}

// Counts every coverage probe; returns what the plume returns.
class CountingPlume final : public GaussianPlumeModel {
 public:
  using GaussianPlumeModel::GaussianPlumeModel;
  bool covered(geom::Vec2 p, sim::Time t) const override {
    ++calls;
    return GaussianPlumeModel::covered(p, t);
  }
  mutable std::size_t calls = 0;
};

// examples/campaign.json's plume.
GaussianPlumeConfig paper_config() {
  GaussianPlumeConfig cfg;
  cfg.source = {3.0, 3.0};
  cfg.mass = 3000.0;
  cfg.diffusivity = 1.5;
  cfg.wind = {0.05, 0.05};
  cfg.threshold = 0.35;
  return cfg;
}

bool same_bits(sim::Time a, sim::Time b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// g(τ) = 4Dτ(L − ln τ) − |d − wτ|² in extended precision.
long double coverage_gap(const GaussianPlumeConfig& cfg, geom::Vec2 p,
                         long double tau) {
  const long double dx = static_cast<long double>(p.x) - cfg.source.x -
                         static_cast<long double>(cfg.wind.x) * tau;
  const long double dy = static_cast<long double>(p.y) - cfg.source.y -
                         static_cast<long double>(cfg.wind.y) * tau;
  const long double log_ratio =
      std::log(static_cast<long double>(cfg.mass) /
               (4.0L * std::numbers::pi_v<long double> * cfg.diffusivity *
                cfg.threshold));
  return 4.0L * cfg.diffusivity * tau * (log_ratio - std::log(tau)) -
         (dx * dx + dy * dy);
}

// The closed-form bracket against the kept scan, bit for bit, over random
// sources, winds, diffusivities, thresholds, start times, horizons that
// clip the covered interval, and points at the source, downwind and far
// outside the reach of the puff. The scan fallback must be exercised too.
TEST(GaussianPlume, ArrivalEqualsTheScanBitForBit) {
  sim::Pcg32 rng(20261020, 7);
  std::size_t cases = 0;
  std::size_t reached = 0;
  std::size_t fallbacks = 0;
  std::vector<geom::Vec2> ps;
  std::vector<sim::Time> expected;
  std::vector<sim::Time> batch;
  while (cases < 100000) {
    GaussianPlumeConfig cfg;
    cfg.source = {rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)};
    cfg.mass = std::exp(rng.uniform(std::log(20.0), std::log(5000.0)));
    cfg.diffusivity = std::exp(rng.uniform(std::log(0.05), std::log(5.0)));
    cfg.threshold = std::exp(rng.uniform(std::log(0.005), std::log(2.0)));
    if (rng.uniform01() < 0.8) {
      const double speed = rng.uniform(0.0, 1.0) * rng.uniform(0.0, 1.0);
      const double angle = rng.uniform(-std::numbers::pi, std::numbers::pi);
      cfg.wind = geom::Vec2::from_polar(speed, angle);
    }
    cfg.start_time = rng.uniform01() < 0.5 ? 0.0 : rng.uniform(-5.0, 20.0);
    const CountingPlume model(cfg);
    const double tau_d = model.dissolve_time() - cfg.start_time;
    // Keep the unbounded oracle scan short: its probes run to the horizon.
    if (tau_d > 2000.0) continue;
    const double reach = std::sqrt(cfg.mass / (std::numbers::pi *
                                               cfg.threshold * std::numbers::e));
    const sim::Time horizon =
        rng.uniform01() < 0.15
            ? rng.uniform(-1.0, 1.0) + std::max(cfg.start_time, 0.0)
            : rng.uniform(0.0, 1.3 * (std::max(cfg.start_time, 0.0) + tau_d));

    ps.clear();
    ps.push_back(cfg.source);
    for (int i = 0; i < 49; ++i) {
      const double along = rng.uniform(0.0, tau_d);
      const double r = 1.4 * reach * std::sqrt(rng.uniform01());
      const double a = rng.uniform(-std::numbers::pi, std::numbers::pi);
      ps.push_back(cfg.source + cfg.wind * along + geom::Vec2::from_polar(r, a));
    }
    expected.resize(ps.size());
    batch.resize(ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      expected[i] = model.scan_arrival_time(ps[i], horizon);
      model.calls = 0;
      const sim::Time got = model.arrival_time(ps[i], horizon);
      if (model.calls > 40) ++fallbacks;
      ASSERT_TRUE(same_bits(got, expected[i]))
          << "case " << cases << " point (" << ps[i].x << ", " << ps[i].y
          << ") horizon " << horizon << ": " << got << " vs scan "
          << expected[i];
      if (expected[i] < sim::kNever) ++reached;
      ++cases;
    }
    model.arrival_many(ps, horizon, batch);
    ASSERT_EQ(std::memcmp(batch.data(), expected.data(),
                          batch.size() * sizeof(sim::Time)),
              0);
  }
  // Both answers occur often, and so does the scan fallback.
  EXPECT_GT(reached, cases / 5);
  EXPECT_LT(reached, cases - cases / 5);
  EXPECT_GT(fallbacks, 0u);
}

// The paper's 30 nodes in a 40 m square: ~13 probes per node instead of
// the scan's ~290, for the same bits.
TEST(GaussianPlume, PaperNodesNeedFewProbes) {
  const CountingPlume model(paper_config());
  sim::Pcg32 rng(5, 11);
  std::size_t fast = 0;
  std::size_t scanned = 0;
  constexpr std::size_t kNodes = 30 * 400;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const geom::Vec2 p{rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)};
    model.calls = 0;
    const sim::Time want = model.scan_arrival_time(p, 150.0);
    scanned += model.calls;
    model.calls = 0;
    const sim::Time got = model.arrival_time(p, 150.0);
    fast += model.calls;
    ASSERT_TRUE(same_bits(got, want));
  }
  const double per_node = static_cast<double>(fast) / kNodes;
  EXPECT_LE(per_node, 20.0);
  EXPECT_GT(static_cast<double>(scanned) / kNodes, 200.0);
}

// The returned time lies within the bisection tolerance of g's first root.
TEST(GaussianPlume, ArrivalIsWithinToleranceOfTheRoot) {
  sim::Pcg32 rng(3, 3);
  std::size_t checked = 0;
  for (int c = 0; c < 200; ++c) {
    GaussianPlumeConfig cfg = paper_config();
    cfg.diffusivity = rng.uniform(0.3, 3.0);
    cfg.wind = {rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)};
    cfg.start_time = rng.uniform(0.0, 10.0);
    const GaussianPlumeModel model(cfg);
    for (int i = 0; i < 50; ++i) {
      const geom::Vec2 p{rng.uniform(-20.0, 30.0), rng.uniform(-20.0, 30.0)};
      const sim::Time t = model.arrival_time(p, 1e4);
      if (t == sim::kNever) {
        continue;
      }
      const long double tau = static_cast<long double>(t) - cfg.start_time;
      const long double scale = 1e-9L * (1.0L + tau * 100.0L);
      EXPECT_GE(coverage_gap(cfg, p, tau), -scale);
      EXPECT_LE(coverage_gap(cfg, p, tau - 1e-4L), scale);
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);
}

// A point the puff never reaches under an unbounded horizon: answered from
// g(τ*) without a scan, and the scan itself stops once the peak
// concentration is below threshold everywhere.
TEST(GaussianPlume, UnreachablePointUnderHugeHorizonReturnsPromptly) {
  const CountingPlume model(paper_config());
  EXPECT_EQ(model.arrival_time({200.0, 200.0}, 1e12), sim::kNever);
  EXPECT_LE(model.calls, 2u);

  // A composite that asks every part for p's arrival with a 1e12 horizon.
  RadialFrontConfig radial;
  radial.source = {3.0, 3.0};
  radial.base_speed = 0.5;
  radial.max_radius = 28.0;
  std::vector<std::unique_ptr<StimulusModel>> parts;
  parts.push_back(std::make_unique<GaussianPlumeModel>(paper_config()));
  parts.push_back(std::make_unique<RadialFrontModel>(radial));
  const CompositeModel composite(std::move(parts));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(composite.front_velocity({200.0, 200.0}, 10.0).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

}  // namespace
}  // namespace pas::stimulus
