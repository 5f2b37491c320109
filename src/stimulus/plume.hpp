// Gaussian puff plume stimulus.
//
// Closed-form solution of 2-D diffusion of an instantaneous release of mass
// Q, optionally advected by a constant wind w:
//   c(p, t) = Q / (4πDτ) · exp(−|p − src − w·τ|² / (4Dτ)),  τ = t − t₀.
// The covered region (c ≥ threshold) grows while the puff is concentrated
// and eventually *recedes* as it dilutes — which exercises the paper's
// covered → (detection timeout) → safe transition that the monotone models
// never trigger.
//
// Arrival times. Coverage at a point is *unimodal* in time: with
// d = p − src and L = ln(Q/(4πDθ)), p is covered exactly when
//   g(τ) = 4Dτ(L − ln τ) − |d − wτ|² ≥ 0,
// and g'' = −4D/τ − 2|w|² < 0, so the covered set is one interval
// [τ₁, τ₂]. arrival_time() returns, bit for bit, what the probe scan
// StimulusModel::first_crossing() returns with step max(1e-3, window/2048),
// but without walking the ~2000-probe grid: Newton finds the peak τ* of g
// and its first root τ₁, a binary search of the cached probe grid finds the
// first probe at or after start + τ₁, and the scan's own bisection runs on
// [previous probe, that probe]. The bracket is trusted only when both
// Newton solves converged, a real covered() call at the probe agrees, and
// g at the previous probe lies below −margin on the rising side of τ* (so
// no earlier probe can be covered in floating point either). kNever is
// returned directly only when g(τ*) < −margin, or when that margin test
// shows every probe up to the horizon uncovered (as when the covered
// interval falls between two probes). Everything else — g within the
// margin of 0, a candidate beyond the cached grid — falls back to the
// scan, bounded at the time the peak concentration drops below threshold.
#pragma once

#include <vector>

#include "geom/vec2.hpp"
#include "stimulus/field.hpp"

namespace pas::stimulus {

struct GaussianPlumeConfig {
  geom::Vec2 source{0.0, 0.0};
  /// Released mass Q (concentration-units·m²).
  double mass = 400.0;
  /// Diffusivity D, m²/s.
  double diffusivity = 1.0;
  /// Advection velocity, m/s.
  geom::Vec2 wind{0.0, 0.0};
  /// Coverage threshold on c.
  double threshold = 0.05;
  sim::Time start_time = 0.0;

  // Equality keys world::Workspace's stimulus-model cache.
  constexpr bool operator==(const GaussianPlumeConfig&) const noexcept = default;
};

/// Not final: a subclass may override covered() to observe the probes
/// (tests count them that way), but must not change what it returns — the
/// closed-form bracket assumes this class's coverage rule.
class GaussianPlumeModel : public StimulusModel {
 public:
  explicit GaussianPlumeModel(GaussianPlumeConfig config);

  [[nodiscard]] bool covered(geom::Vec2 p, sim::Time t) const override;
  [[nodiscard]] double concentration(geom::Vec2 p, sim::Time t) const override;
  [[nodiscard]] geom::Vec2 source() const noexcept override { return cfg_.source; }
  /// Equal, bit for bit, to scan_arrival_time(); see the header comment.
  [[nodiscard]] sim::Time arrival_time(geom::Vec2 p,
                                       sim::Time horizon) const override;
  void arrival_many(std::span<const geom::Vec2> ps, sim::Time horizon,
                    std::span<sim::Time> out) const override;
  /// The reference arrival_time() reproduces: the unbounded probe scan,
  /// first_crossing() with this model's step. Tests use it as the oracle.
  [[nodiscard]] sim::Time scan_arrival_time(geom::Vec2 p,
                                            sim::Time horizon) const;
  /// Closed-form Gaussian evaluated in one vectorizable loop: the advected
  /// center and 1/(4Dτ) terms are hoisted out of the per-point work.
  void sample_many(std::span<const geom::Vec2> ps, sim::Time t,
                   std::span<double> out) const override;
  void covered_many(std::span<const geom::Vec2> ps, sim::Time t,
                    std::span<std::uint8_t> out) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "plume"; }

  /// Time at which the whole covered region has dissolved (c < threshold
  /// everywhere): when 4πDτ ≥ Q/threshold the peak is below threshold.
  [[nodiscard]] sim::Time dissolve_time() const noexcept;

  /// Radius of the covered disk around the (advected) center at time t;
  /// 0 when nothing is covered.
  [[nodiscard]] double covered_radius(sim::Time t) const noexcept;

  [[nodiscard]] const GaussianPlumeConfig& config() const noexcept { return cfg_; }

 private:
  /// arrival_time() for the non-virtual batch loop.
  [[nodiscard]] sim::Time arrival(geom::Vec2 p, sim::Time horizon) const;
  /// g(τ) for the offset d = p − source; see the header comment.
  [[nodiscard]] double gap(geom::Vec2 d, double tau) const noexcept;

  GaussianPlumeConfig cfg_;
  /// The scan's probe step, max(1e-3, window/2048).
  sim::Duration step_ = 0.0;
  /// L = ln(Q/(4πDθ)).
  double log_ratio_ = 0.0;
  /// No t > never_after_ is covered anywhere: the peak concentration there
  /// is below threshold in floating point. τ_max = never_after_ − start.
  sim::Time never_after_ = 0.0;
  double tau_max_ = 0.0;
  /// Bounds on g's terms over (0, τ_max] for the sign margin: the part
  /// that does not depend on the point, and |source| + |w|·τ_max.
  double term_bound_ = 0.0;
  double drift_ = 0.0;
  /// The scan's last probe at or before the release (0 when there is
  /// none), then its probes after the release, accumulated exactly as the
  /// scan does, through the first one past never_after_ unless capped.
  sim::Time lead_probe_ = 0.0;
  std::vector<sim::Time> probes_;
};

}  // namespace pas::stimulus
