#include "world/deployment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

namespace pas::world {
namespace {

TEST(GridDeployment, CountAndContainment) {
  sim::Pcg32 rng(1, 1);
  const auto pts = grid_deployment(30, geom::Aabb::square(40.0), 0.2, rng);
  EXPECT_EQ(pts.size(), 30U);
  for (const auto& p : pts) {
    EXPECT_TRUE(geom::Aabb::square(40.0).contains(p));
  }
}

TEST(GridDeployment, ZeroJitterIsRegular) {
  sim::Pcg32 rng(1, 1);
  const auto pts = grid_deployment(9, geom::Aabb::square(30.0), 0.0, rng);
  // 3x3 grid with pitch 10: cell centers at 5, 15, 25.
  EXPECT_DOUBLE_EQ(pts[0].x, 5.0);
  EXPECT_DOUBLE_EQ(pts[4].x, 15.0);
  EXPECT_DOUBLE_EQ(pts[8].y, 25.0);
}

TEST(GridDeployment, RejectsBadJitter) {
  sim::Pcg32 rng(1, 1);
  EXPECT_THROW(grid_deployment(4, geom::Aabb::square(10.0), 0.7, rng),
               std::invalid_argument);
}

TEST(UniformDeployment, CountContainmentDeterminism) {
  sim::Pcg32 a(5, 5), b(5, 5);
  const auto pa = uniform_deployment(50, geom::Aabb::square(40.0), a);
  const auto pb = uniform_deployment(50, geom::Aabb::square(40.0), b);
  EXPECT_EQ(pa.size(), 50U);
  EXPECT_EQ(pa, pb);
  for (const auto& p : pa) {
    EXPECT_TRUE(geom::Aabb::square(40.0).contains(p));
  }
}

TEST(PoissonDisk, RespectsMinSeparation) {
  sim::Pcg32 rng(9, 9);
  const auto pts =
      poisson_disk_deployment(25, geom::Aabb::square(40.0), 4.0, rng);
  ASSERT_EQ(pts.size(), 25U);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      EXPECT_GE(geom::distance(pts[i], pts[j]), 4.0);
    }
  }
}

TEST(PoissonDisk, ImpossiblePackingThrows) {
  sim::Pcg32 rng(1, 1);
  EXPECT_THROW(
      poisson_disk_deployment(1000, geom::Aabb::square(10.0), 5.0, rng),
      std::runtime_error);
}

TEST(PoissonDisk, RejectsNonPositiveSeparation) {
  sim::Pcg32 rng(1, 1);
  EXPECT_THROW(poisson_disk_deployment(5, geom::Aabb::square(10.0), 0.0, rng),
               std::invalid_argument);
}

TEST(GenerateDeployment, DispatchesOnKind) {
  DeploymentConfig cfg;
  cfg.count = 16;
  cfg.region = geom::Aabb::square(40.0);
  for (const auto kind : {DeploymentKind::kGrid, DeploymentKind::kUniform,
                          DeploymentKind::kPoissonDisk}) {
    cfg.kind = kind;
    sim::Pcg32 rng(3, 3);
    EXPECT_EQ(generate_deployment(cfg, rng).size(), 16U) << to_string(kind);
  }
}

TEST(IsConnected, DetectsChainAndGap) {
  EXPECT_TRUE(is_connected({{0.0, 0.0}, {8.0, 0.0}, {16.0, 0.0}}, 10.0));
  EXPECT_FALSE(is_connected({{0.0, 0.0}, {8.0, 0.0}, {30.0, 0.0}}, 10.0));
  EXPECT_TRUE(is_connected({}, 10.0));
  EXPECT_TRUE(is_connected({{1.0, 1.0}}, 10.0));
}

TEST(DeploymentKindNames, Stable) {
  EXPECT_STREQ(to_string(DeploymentKind::kGrid), "grid");
  EXPECT_STREQ(to_string(DeploymentKind::kUniform), "uniform");
  EXPECT_STREQ(to_string(DeploymentKind::kPoissonDisk), "poisson-disk");
}

// The disk graph's connectivity against a depth-first search over all
// pairs, on random layouts around the connectivity threshold, both up to 64
// nodes (adjacency masks) and beyond (grid index).
TEST(IsConnected, MatchesAllPairsSearch) {
  sim::Pcg32 rng(9, 9);
  std::size_t connected = 0;
  std::size_t cases = 0;
  for (const std::size_t n : {2, 5, 30, 63, 64, 65, 120}) {
    for (int trial = 0; trial < 200; ++trial) {
      const double side = 6.0 * std::sqrt(static_cast<double>(n));
      const auto pts = uniform_deployment(n, geom::Aabb::square(side), rng);
      const double range = rng.uniform(5.0, 12.0);
      std::vector<char> seen(n, 0);
      const std::function<void(std::size_t)> visit = [&](std::size_t i) {
        seen[i] = 1;
        for (std::size_t j = 0; j < n; ++j) {
          if (seen[j] == 0 && geom::distance2(pts[i], pts[j]) <= range * range) {
            visit(j);
          }
        }
      };
      visit(0);
      const bool want = std::count(seen.begin(), seen.end(), 1) ==
                        static_cast<std::ptrdiff_t>(n);
      ASSERT_EQ(is_connected(pts, range), want) << n << " nodes, trial " << trial;
      connected += want ? 1 : 0;
      ++cases;
    }
  }
  EXPECT_GT(connected, cases / 5);
  EXPECT_LT(connected, cases - cases / 5);
  EXPECT_THROW((void)is_connected({{0.0, 0.0}}, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace pas::world
