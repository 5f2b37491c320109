#include "stimulus/field.hpp"

#include <algorithm>
#include <cassert>

namespace pas::stimulus {

double StimulusModel::concentration(geom::Vec2 p, sim::Time t) const {
  return covered(p, t) ? 1.0 : 0.0;
}

std::optional<geom::Vec2> StimulusModel::front_velocity(geom::Vec2,
                                                        sim::Time) const {
  return std::nullopt;
}

sim::Time StimulusModel::arrival_time(geom::Vec2 p, sim::Time horizon) const {
  // Default: numeric first-crossing; models with closed forms override.
  return first_crossing(p, horizon, horizon / 512.0);
}

void StimulusModel::sample_many(std::span<const geom::Vec2> ps, sim::Time t,
                                std::span<double> out) const {
  assert(ps.size() == out.size());
  for (std::size_t i = 0; i < ps.size(); ++i) out[i] = concentration(ps[i], t);
}

void StimulusModel::covered_many(std::span<const geom::Vec2> ps, sim::Time t,
                                 std::span<std::uint8_t> out) const {
  assert(ps.size() == out.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    out[i] = covered(ps[i], t) ? 1 : 0;
  }
}

void StimulusModel::arrival_many(std::span<const geom::Vec2> ps,
                                 sim::Time horizon,
                                 std::span<sim::Time> out) const {
  assert(ps.size() == out.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    out[i] = arrival_time(ps[i], horizon);
  }
}

sim::Time StimulusModel::first_crossing(geom::Vec2 p, sim::Time horizon,
                                        sim::Duration coarse_step,
                                        sim::Duration tol,
                                        sim::Time never_after) const {
  if (horizon <= 0.0) return sim::kNever;
  if (coarse_step <= 0.0) coarse_step = horizon / 512.0;

  if (covered(p, 0.0)) return 0.0;
  sim::Time lo = 0.0;
  for (sim::Time t = coarse_step; t <= horizon + 0.5 * coarse_step;
       t += coarse_step) {
    const sim::Time probe = std::min(t, horizon);
    // Probes only grow, so every later one is past never_after too.
    if (probe > never_after) break;
    if (covered(p, probe)) return bisect_crossing(p, lo, probe, tol);
    lo = probe;
  }
  return sim::kNever;
}

sim::Time StimulusModel::bisect_crossing(geom::Vec2 p, sim::Time lo,
                                         sim::Time hi,
                                         sim::Duration tol) const {
  while (hi - lo > tol) {
    const sim::Time mid = 0.5 * (lo + hi);
    if (covered(p, mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace pas::stimulus
