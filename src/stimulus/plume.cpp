#include "stimulus/plume.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace pas::stimulus {

namespace {

/// Probes kept past the release; the paper plume needs ~2050. Candidates
/// beyond the cap use the scan.
constexpr std::size_t kMaxProbes = 8192;
/// Probes before the release are walked once to find the probe grid's
/// value there; a release later than this many steps skips the grid.
constexpr std::size_t kMaxLeadProbes = std::size_t{1} << 22;
constexpr int kMaxNewtonSteps = 100;
/// Relative Newton convergence threshold.
constexpr double kNewtonTol = 1e-13;
/// Sign margin on g, relative to a bound on the size of its terms. The
/// rounding of covered() and of g moves g by ~20 ulp of that bound; this
/// is ~1e6 times more, and g lands inside it for ~1 node in 1e5.
constexpr double kMarginRel = 1e-9;

}  // namespace

GaussianPlumeModel::GaussianPlumeModel(GaussianPlumeConfig config)
    : cfg_(config) {
  if (cfg_.mass <= 0.0) {
    throw std::invalid_argument("GaussianPlumeModel: mass must be > 0");
  }
  if (cfg_.diffusivity <= 0.0) {
    throw std::invalid_argument("GaussianPlumeModel: diffusivity must be > 0");
  }
  if (cfg_.threshold <= 0.0) {
    throw std::invalid_argument("GaussianPlumeModel: threshold must be > 0");
  }
  const sim::Time start = cfg_.start_time;
  const sim::Duration window = dissolve_time() - start;
  step_ = std::max(1e-3, window / 2048.0);
  const double four_pi_d = 4.0 * std::numbers::pi * cfg_.diffusivity;
  log_ratio_ = std::log(cfg_.mass / (four_pi_d * cfg_.threshold));

  // covered() needs the factor mass/denom (the exp is at most 1) to reach
  // threshold, and that factor only falls as t grows: the first t past the
  // dissolve time where it computes below threshold bounds every arrival.
  const double tau_dissolve = cfg_.mass / (four_pi_d * cfg_.threshold);
  for (double slack = 1e-9;; slack *= 2.0) {
    never_after_ = start + tau_dissolve * (1.0 + slack);
    const double tau = never_after_ - start;
    if (tau > 0.0 &&
        cfg_.mass / (4.0 * std::numbers::pi * cfg_.diffusivity * tau) <
            cfg_.threshold) {
      break;
    }
  }
  tau_max_ = never_after_ - start;
  term_bound_ = 4.0 * cfg_.diffusivity *
                (tau_max_ * (std::abs(log_ratio_) + 1.0) +
                 std::max(1.0 / std::numbers::e,
                          tau_max_ * std::abs(std::log(tau_max_))));
  drift_ = std::abs(cfg_.source.x) + std::abs(cfg_.source.y) +
           cfg_.wind.norm() * tau_max_;

  // The scan's probes, accumulated as it accumulates them; those at or
  // before the release are never covered and only the last is kept.
  sim::Time t = step_;
  for (std::size_t k = 0; t - start <= 0.0; t += step_) {
    if (++k > kMaxLeadProbes) return;
    lead_probe_ = t;
  }
  for (; probes_.size() < kMaxProbes; t += step_) {
    probes_.push_back(t);
    if (t > never_after_) break;
  }
}

double GaussianPlumeModel::concentration(geom::Vec2 p, sim::Time t) const {
  const double tau = t - cfg_.start_time;
  if (tau <= 0.0) return 0.0;
  const double denom = 4.0 * std::numbers::pi * cfg_.diffusivity * tau;
  const geom::Vec2 center = cfg_.source + cfg_.wind * tau;
  const double r2 = geom::distance2(p, center);
  return cfg_.mass / denom * std::exp(-r2 / (4.0 * cfg_.diffusivity * tau));
}

bool GaussianPlumeModel::covered(geom::Vec2 p, sim::Time t) const {
  return concentration(p, t) >= cfg_.threshold;
}

void GaussianPlumeModel::sample_many(std::span<const geom::Vec2> ps,
                                     sim::Time t,
                                     std::span<double> out) const {
  // The exact arithmetic of concentration() with the loop-invariant pieces
  // (denominator, advected center) hoisted; results stay bit-identical to
  // the scalar call.
  const double tau = t - cfg_.start_time;
  if (tau <= 0.0) {
    for (std::size_t i = 0; i < ps.size(); ++i) out[i] = 0.0;
    return;
  }
  const double denom = 4.0 * std::numbers::pi * cfg_.diffusivity * tau;
  const double four_d_tau = 4.0 * cfg_.diffusivity * tau;
  const geom::Vec2 center = cfg_.source + cfg_.wind * tau;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const double r2 = geom::distance2(ps[i], center);
    out[i] = cfg_.mass / denom * std::exp(-r2 / four_d_tau);
  }
}

void GaussianPlumeModel::covered_many(std::span<const geom::Vec2> ps,
                                      sim::Time t,
                                      std::span<std::uint8_t> out) const {
  const double tau = t - cfg_.start_time;
  if (tau <= 0.0) {
    for (std::size_t i = 0; i < ps.size(); ++i) out[i] = 0;
    return;
  }
  const double denom = 4.0 * std::numbers::pi * cfg_.diffusivity * tau;
  const double four_d_tau = 4.0 * cfg_.diffusivity * tau;
  const geom::Vec2 center = cfg_.source + cfg_.wind * tau;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const double r2 = geom::distance2(ps[i], center);
    const double c = cfg_.mass / denom * std::exp(-r2 / four_d_tau);
    out[i] = c >= cfg_.threshold ? 1 : 0;
  }
}

sim::Time GaussianPlumeModel::dissolve_time() const noexcept {
  // Peak concentration Q/(4πDτ) falls below threshold at this τ.
  return cfg_.start_time +
         cfg_.mass / (4.0 * std::numbers::pi * cfg_.diffusivity * cfg_.threshold);
}

double GaussianPlumeModel::covered_radius(sim::Time t) const noexcept {
  const double tau = t - cfg_.start_time;
  if (tau <= 0.0) return 0.0;
  const double peak =
      cfg_.mass / (4.0 * std::numbers::pi * cfg_.diffusivity * tau);
  if (peak < cfg_.threshold) return 0.0;
  // c(r) = peak · exp(−r²/(4Dτ)) = threshold  ⇒  r² = 4Dτ ln(peak/threshold).
  return std::sqrt(4.0 * cfg_.diffusivity * tau * std::log(peak / cfg_.threshold));
}

double GaussianPlumeModel::gap(geom::Vec2 d, double tau) const noexcept {
  const geom::Vec2 r = d - cfg_.wind * tau;
  return 4.0 * cfg_.diffusivity * tau * (log_ratio_ - std::log(tau)) -
         r.norm2();
}

sim::Time GaussianPlumeModel::scan_arrival_time(geom::Vec2 p,
                                                sim::Time horizon) const {
  return first_crossing(p, horizon, step_);
}

sim::Time GaussianPlumeModel::arrival_time(geom::Vec2 p,
                                           sim::Time horizon) const {
  return arrival(p, horizon);
}

void GaussianPlumeModel::arrival_many(std::span<const geom::Vec2> ps,
                                      sim::Time horizon,
                                      std::span<sim::Time> out) const {
  for (std::size_t i = 0; i < ps.size(); ++i) out[i] = arrival(ps[i], horizon);
}

sim::Time GaussianPlumeModel::arrival(geom::Vec2 p, sim::Time horizon) const {
  // The scan's first two answers, verbatim; from here on the t = 0 probe is
  // known to be uncovered.
  if (horizon <= 0.0) return sim::kNever;
  if (covered(p, 0.0)) return 0.0;
  const auto scan = [&] {
    return first_crossing(p, horizon, step_, 1e-4, never_after_);
  };

  const sim::Time start = cfg_.start_time;
  const double four_d = 4.0 * cfg_.diffusivity;
  const double log_ratio = log_ratio_;
  const geom::Vec2 d = p - cfg_.source;
  const geom::Vec2 w = cfg_.wind;
  const double w2 = w.norm2();
  const double wd = w.dot(d);
  // Bounds the terms of g, and the coordinates covered() rounds, over
  // every τ that can be covered: (0, τ_max].
  const double coords = std::abs(p.x) + std::abs(p.y) + drift_;
  const double margin = kMarginRel * (term_bound_ + coords * coords);

  // Peak τ* of g on (0, τ_max]: the root of
  // g'(e^s) = 4D(L − 1 − s) + 2w·d − 2|w|²e^s, concave and decreasing in s,
  // or τ_max when g still rises there. Newton from the windless root
  // (capped at τ_max), which lies at or right of it, descends monotonically
  // without overshooting.
  const double s_max = std::log(tau_max_);
  const auto slope = [&](double s) {
    return four_d * (log_ratio - 1.0 - s) + 2.0 * wd - 2.0 * w2 * std::exp(s);
  };
  double s = std::min(log_ratio - 1.0 + wd / (2.0 * cfg_.diffusivity), s_max);
  bool converged = s == s_max && slope(s) >= 0.0;
  for (int i = 0; i < kMaxNewtonSteps && !converged; ++i) {
    const double next = s + slope(s) / (four_d + 2.0 * w2 * std::exp(s));
    if (!std::isfinite(next)) break;
    converged = std::abs(next - s) <= kNewtonTol * std::max(1.0, std::abs(s));
    s = next;
  }
  if (!converged) return scan();
  const double tau_star = std::exp(s);
  const double g_star = gap(d, tau_star);
  if (g_star < -margin) return sim::kNever;
  if (g_star <= margin) return scan();

  // First root τ₁ in (0, τ*): g is concave and rising there with
  // g(0+) = −|d|², so Newton from any point where g < 0 climbs to τ₁
  // without passing it.
  double tau1 = 0.0;
  if (d.x != 0.0 || d.y != 0.0) {
    double x = tau_star;
    do {
      x *= 1.0 / 16.0;
    } while (x > 0.0 && gap(d, x) >= 0.0);
    if (!(x > 0.0)) return scan();
    converged = false;
    for (int i = 0; i < kMaxNewtonSteps && !converged; ++i) {
      const double lx = std::log(x);
      const double g = four_d * x * (log_ratio - lx) - (d - w * x).norm2();
      const double dg =
          four_d * (log_ratio - 1.0 - lx) + 2.0 * wd - 2.0 * w2 * x;
      const double next = x - g / dg;
      if (!(dg > 0.0) || !std::isfinite(next)) break;
      converged = std::abs(next - x) <= kNewtonTol * x;
      x = next;
    }
    if (!converged) return scan();
    tau1 = x;
  }

  // The candidate: the first probe at or after start + τ₁ (every kept
  // probe is past the release).
  const auto it = std::lower_bound(probes_.begin(), probes_.end(), start + tau1);
  if (it == probes_.end()) return scan();
  const sim::Time bound = horizon + 0.5 * step_;
  const bool reached = *it <= bound;
  // The scan's last probe before the candidate, taken at the horizon when
  // past it. Before the kept probes comes lead_probe_, which the release
  // has not reached yet (or 0, whose probe is already known uncovered).
  const auto before =
      reached ? it : std::upper_bound(probes_.begin(), it, bound);
  sim::Time lo = std::min(lead_probe_, horizon);
  if (before != probes_.begin()) {
    lo = std::min(*(before - 1), horizon);
    // Every earlier probe has a smaller τ, so g below −margin here on the
    // rising side of τ* means none of them is covered either.
    const double tau_lo = lo - start;
    if (tau_lo > 0.0 && !(tau_lo < tau_star && gap(d, tau_lo) < -margin)) {
      return scan();
    }
  }
  if (!reached) return sim::kNever;
  const sim::Time hi = std::min(*it, horizon);
  if (!covered(p, hi)) {
    // At the horizon this is the scan's last probe (any later one in its
    // loop is taken at the horizon too), so nothing is covered by then.
    if (hi < *it) return sim::kNever;
    // Past τ* g only falls: the covered interval lay between two probes.
    const double tau_hi = hi - start;
    return tau_hi > tau_star && gap(d, tau_hi) < -margin ? sim::kNever
                                                         : scan();
  }
  return bisect_crossing(p, lo, hi);
}

}  // namespace pas::stimulus
