#include "world/deployment.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace pas::world {

namespace {

void fill_grid(std::size_t count, geom::Aabb region, double jitter,
               sim::Pcg32& rng, std::vector<geom::Vec2>& out) {
  out.clear();
  if (count == 0) return;
  if (jitter < 0.0 || jitter > 0.5) {
    throw std::invalid_argument("grid_deployment: jitter must be in [0, 0.5]");
  }
  // Smallest near-square grid holding `count` nodes.
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(count))));
  const auto rows = (count + cols - 1) / cols;
  const double dx = region.width() / static_cast<double>(cols);
  const double dy = region.height() / static_cast<double>(rows);

  out.reserve(count);
  for (std::size_t r = 0; r < rows && out.size() < count; ++r) {
    for (std::size_t c = 0; c < cols && out.size() < count; ++c) {
      const double cx = region.lo.x + (static_cast<double>(c) + 0.5) * dx;
      const double cy = region.lo.y + (static_cast<double>(r) + 0.5) * dy;
      const double jx = rng.uniform(-jitter, jitter) * dx;
      const double jy = rng.uniform(-jitter, jitter) * dy;
      out.push_back(region.clamp({cx + jx, cy + jy}));
    }
  }
}

void fill_uniform(std::size_t count, geom::Aabb region, sim::Pcg32& rng,
                  std::vector<geom::Vec2>& out) {
  out.clear();
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({rng.uniform(region.lo.x, region.hi.x),
                   rng.uniform(region.lo.y, region.hi.y)});
  }
}

void fill_poisson_disk(std::size_t count, geom::Aabb region,
                       double min_separation, sim::Pcg32& rng,
                       std::vector<geom::Vec2>& out) {
  if (min_separation <= 0.0) {
    throw std::invalid_argument(
        "poisson_disk_deployment: min_separation must be > 0");
  }
  out.clear();
  out.reserve(count);
  const double sep2 = min_separation * min_separation;
  const std::size_t max_attempts = count * 2000 + 1000;
  std::size_t attempts = 0;
  while (out.size() < count) {
    if (++attempts > max_attempts) {
      throw std::runtime_error(
          "poisson_disk_deployment: could not place all nodes; reduce "
          "min_separation or count");
    }
    const geom::Vec2 candidate{rng.uniform(region.lo.x, region.hi.x),
                               rng.uniform(region.lo.y, region.hi.y)};
    bool ok = true;
    for (const geom::Vec2 p : out) {
      if (geom::distance2(p, candidate) < sep2) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(candidate);
  }
}

}  // namespace

std::vector<geom::Vec2> grid_deployment(std::size_t count, geom::Aabb region,
                                        double jitter, sim::Pcg32& rng) {
  std::vector<geom::Vec2> out;
  fill_grid(count, region, jitter, rng, out);
  return out;
}

std::vector<geom::Vec2> uniform_deployment(std::size_t count, geom::Aabb region,
                                           sim::Pcg32& rng) {
  std::vector<geom::Vec2> out;
  fill_uniform(count, region, rng, out);
  return out;
}

std::vector<geom::Vec2> poisson_disk_deployment(std::size_t count,
                                                geom::Aabb region,
                                                double min_separation,
                                                sim::Pcg32& rng) {
  std::vector<geom::Vec2> out;
  fill_poisson_disk(count, region, min_separation, rng, out);
  return out;
}

void generate_deployment(const DeploymentConfig& config, sim::Pcg32& rng,
                         std::vector<geom::Vec2>& out) {
  switch (config.kind) {
    case DeploymentKind::kGrid:
      fill_grid(config.count, config.region, config.grid_jitter, rng, out);
      return;
    case DeploymentKind::kUniform:
      fill_uniform(config.count, config.region, rng, out);
      return;
    case DeploymentKind::kPoissonDisk:
      fill_poisson_disk(config.count, config.region, config.min_separation,
                        rng, out);
      return;
  }
  throw std::logic_error("generate_deployment: unknown kind");
}

std::vector<geom::Vec2> generate_deployment(const DeploymentConfig& config,
                                            sim::Pcg32& rng) {
  std::vector<geom::Vec2> out;
  generate_deployment(config, rng, out);
  return out;
}

bool is_connected(const std::vector<geom::Vec2>& positions, double range) {
  const std::size_t n = positions.size();
  if (n == 0) return true;
  if (!(range > 0.0)) {
    throw std::invalid_argument("is_connected: range must be > 0");
  }
  const double r2 = range * range;
  if (n <= 64) {
    // One adjacency mask per node, filled branch-free over all pairs, then
    // a breadth-first search over the masks: nothing to allocate on the
    // paper's 30 nodes.
    std::array<std::uint64_t, 64> adjacent{};
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t mask = 0;
      for (std::size_t j = 0; j < n; ++j) {
        mask |= static_cast<std::uint64_t>(
                    geom::distance2(positions[j], positions[i]) <= r2)
                << j;
      }
      adjacent[i] = mask;
    }
    std::uint64_t reached = 1;
    std::uint64_t frontier = 1;
    while (frontier != 0) {
      const int i = std::countr_zero(frontier);
      frontier &= frontier - 1;
      const std::uint64_t fresh = adjacent[static_cast<std::size_t>(i)] & ~reached;
      reached |= fresh;
      frontier |= fresh;
    }
    return reached == (n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1);
  }
  // Larger layouts: the same search, testing all pairs from each node it
  // reaches.
  std::vector<char> seen(n, 0);
  std::vector<std::size_t> frontier{0};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!frontier.empty()) {
    const std::size_t cur = frontier.back();
    frontier.pop_back();
    for (std::size_t next = 0; next < n; ++next) {
      if (seen[next] == 0 && geom::distance2(positions[cur], positions[next]) <= r2) {
        seen[next] = 1;
        ++visited;
        frontier.push_back(next);
      }
    }
  }
  return visited == n;
}

}  // namespace pas::world
