// Stimulus model interface.
//
// A stimulus model answers, for any position and simulation time, whether
// the diffusion stimulus (DS) has reached that position, and provides the
// ground-truth *arrival time* used both to schedule detection events and to
// score detection delay. The paper's §3.3 assumption — the front spreads
// along the outward normal of its boundary — holds for every model here.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "geom/vec2.hpp"
#include "sim/time.hpp"

namespace pas::stimulus {

class StimulusModel {
 public:
  virtual ~StimulusModel() = default;

  /// True when the stimulus covers position `p` at time `t`.
  [[nodiscard]] virtual bool covered(geom::Vec2 p, sim::Time t) const = 0;

  /// Scalar intensity at (p, t) in model units. Default: 1 inside, 0 outside.
  [[nodiscard]] virtual double concentration(geom::Vec2 p, sim::Time t) const;

  /// Location the stimulus emanates from.
  [[nodiscard]] virtual geom::Vec2 source() const noexcept = 0;

  /// First time within [0, horizon] at which `p` becomes covered, or
  /// sim::kNever if the stimulus never reaches `p` by `horizon`.
  [[nodiscard]] virtual sim::Time arrival_time(geom::Vec2 p,
                                               sim::Time horizon) const;

  /// True front velocity (direction + magnitude, m/s) at position `p` and
  /// time `t`, when the model can provide it analytically; estimators are
  /// validated against this in tests. std::nullopt when unavailable.
  [[nodiscard]] virtual std::optional<geom::Vec2> front_velocity(
      geom::Vec2 p, sim::Time t) const;

  // Batch sampling ---------------------------------------------------------
  //
  // One virtual dispatch for a whole position set (every node of a world at
  // one tick, or a render grid row). The defaults loop over the scalar
  // calls; grid-backed and closed-form models override with tight loops the
  // compiler can vectorize. `out.size()` must equal `ps.size()`; results
  // are bit-identical to the scalar calls.

  /// out[i] = concentration(ps[i], t).
  virtual void sample_many(std::span<const geom::Vec2> ps, sim::Time t,
                           std::span<double> out) const;

  /// out[i] = covered(ps[i], t) as 0/1.
  virtual void covered_many(std::span<const geom::Vec2> ps, sim::Time t,
                            std::span<std::uint8_t> out) const;

  /// out[i] = arrival_time(ps[i], horizon).
  virtual void arrival_many(std::span<const geom::Vec2> ps, sim::Time horizon,
                            std::span<sim::Time> out) const;

  /// Short identifier for reports ("radial", "pde", "plume").
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

 protected:
  /// Generic earliest-crossing search, the contract every numeric
  /// arrival_time() reproduces:
  ///  1. horizon <= 0 gives kNever; covered(p, 0) gives 0.
  ///  2. Probes t_k = t_{k-1} + coarse_step (accumulated, t_1 = coarse_step)
  ///     while t_k <= horizon + coarse_step / 2, each at min(t_k, horizon);
  ///     none covered gives kNever.
  ///  3. The first covered probe `hi` and the probe before it `lo` (0 for
  ///     k = 1) go to bisect_crossing(), whose result is returned.
  /// Exact only for coverage that, once gained, is not lost within a coarse
  /// step — true for all models in this library. `never_after` is the
  /// caller's guarantee that `p` is uncovered at every t > never_after: the
  /// scan stops at the first probe past it, which changes no result and
  /// bounds the work of an unreachable point under a huge horizon.
  [[nodiscard]] sim::Time first_crossing(
      geom::Vec2 p, sim::Time horizon, sim::Duration coarse_step,
      sim::Duration tol = 1e-4, sim::Time never_after = sim::kNever) const;

  /// Step 3 of first_crossing(): halves [lo, hi] (covered at hi, not at lo)
  /// at midpoints while hi - lo > tol and returns the final hi.
  [[nodiscard]] sim::Time bisect_crossing(geom::Vec2 p, sim::Time lo,
                                          sim::Time hi,
                                          sim::Duration tol = 1e-4) const;
};

}  // namespace pas::stimulus
