#include "geom/grid_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/rng.hpp"

namespace pas::geom {
namespace {

std::vector<Vec2> random_points(std::size_t n, Aabb region, std::uint64_t seed) {
  sim::Pcg32 rng(seed, 1);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(region.lo.x, region.hi.x),
                   rng.uniform(region.lo.y, region.hi.y)});
  }
  return pts;
}

std::vector<std::uint32_t> brute_force_radius(const std::vector<Vec2>& pts,
                                              Vec2 q, double r) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (distance(pts[i], q) <= r) out.push_back(i);
  }
  return out;
}

TEST(GridIndex, RejectsBadCellSize) {
  EXPECT_THROW(GridIndex({{0.0, 0.0}}, Aabb::square(1.0), 0.0),
               std::invalid_argument);
}

TEST(GridIndex, FindsSinglePoint) {
  const std::vector<Vec2> pts{{5.0, 5.0}};
  const GridIndex idx(pts, Aabb::square(10.0), 2.0);
  EXPECT_EQ(idx.query_radius({5.0, 5.0}, 0.1), std::vector<std::uint32_t>{0});
  EXPECT_TRUE(idx.query_radius({0.0, 0.0}, 1.0).empty());
}

TEST(GridIndex, RadiusBoundaryIsInclusive) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {3.0, 0.0}};
  const GridIndex idx(pts, Aabb::square(10.0), 1.0);
  const auto hits = idx.query_radius({0.0, 0.0}, 3.0);
  EXPECT_EQ(hits.size(), 2U);
}

TEST(GridIndex, MatchesBruteForceOnRandomSets) {
  const Aabb region = Aabb::square(50.0);
  const auto pts = random_points(300, region, 77);
  const GridIndex idx(pts, region, 5.0);
  sim::Pcg32 rng(5, 5);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec2 q{rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)};
    const double r = rng.uniform(0.5, 15.0);
    EXPECT_EQ(idx.query_radius(q, r), brute_force_radius(pts, q, r));
  }
}

TEST(GridIndex, PointsOutsideBoundsAreClampedNotLost) {
  const std::vector<Vec2> pts{{-5.0, -5.0}, {100.0, 100.0}, {5.0, 5.0}};
  const GridIndex idx(pts, Aabb::square(10.0), 2.0);
  // All points remain findable with a big enough radius.
  EXPECT_EQ(idx.query_radius({5.0, 5.0}, 1000.0).size(), 3U);
}

TEST(GridIndex, NegativeRadiusYieldsNothing) {
  const std::vector<Vec2> pts{{1.0, 1.0}};
  const GridIndex idx(pts, Aabb::square(2.0), 1.0);
  EXPECT_TRUE(idx.query_radius({1.0, 1.0}, -1.0).empty());
}

TEST(GridIndex, ForEachVisitsSameSetAsQuery) {
  const Aabb region = Aabb::square(30.0);
  const auto pts = random_points(100, region, 3);
  const GridIndex idx(pts, region, 3.0);
  std::vector<std::uint32_t> visited;
  idx.for_each_in_radius({15.0, 15.0}, 8.0,
                         [&](std::uint32_t id) { visited.push_back(id); });
  std::sort(visited.begin(), visited.end());
  EXPECT_EQ(visited, idx.query_radius({15.0, 15.0}, 8.0));
}

}  // namespace
}  // namespace pas::geom
