#include "analysis/isoefficiency.hpp"

#include <cmath>

#include "util/error.hpp"

namespace hpmm {

std::optional<double> iso_matrix_order(const PerfModel& model, double p,
                                       double target_efficiency) {
  require(p >= 1.0, "iso_matrix_order: p must be >= 1");
  require(target_efficiency > 0.0 && target_efficiency < 1.0,
          "iso_matrix_order: efficiency must lie in (0, 1)");
  if (p <= 1.0) return 1.0;

  // Applicability bounds n on both sides: the concurrency bound p <= h(n)
  // forces n upward, while a minimum processor count (DNS: p >= n^2) caps n
  // from above at n_cap with min_procs(n_cap) = p.
  const double kHuge = 1e18;
  double n_cap = kHuge;
  if (model.min_procs(2.0) > model.min_procs(1.0)) {
    // min_procs grows with n; find the largest n still applicable.
    double cap_lo = 1.0, cap_hi = 1.0;
    while (cap_hi < kHuge && model.min_procs(cap_hi) <= p) cap_hi *= 2.0;
    if (model.min_procs(1.0) > p) return std::nullopt;
    for (int iter = 0; iter < 200 && cap_hi - cap_lo > 1e-9 * cap_hi; ++iter) {
      const double mid = 0.5 * (cap_lo + cap_hi);
      if (model.min_procs(mid) <= p) {
        cap_lo = mid;
      } else {
        cap_hi = mid;
      }
    }
    n_cap = cap_lo;
  }

  double lo = 1.0;
  double hi = 1.0;
  // Find an upper bracket: double n (clamped to n_cap) until the efficiency
  // target is met, or conclude it is unreachable.
  bool bracketed = false;
  while (true) {
    const double candidate = std::min(hi, n_cap);
    if (model.applicable(candidate, p) &&
        model.efficiency(candidate, p) >= target_efficiency) {
      hi = candidate;
      bracketed = true;
      break;
    }
    if (hi >= n_cap || hi >= kHuge) break;
    hi *= 2.0;
  }
  if (!bracketed) return std::nullopt;  // unreachable efficiency
  // For models with a minimum processor count (DNS: p >= n^2), n must stay
  // small enough to remain applicable; bisection keeps hi applicable, and we
  // only need lo < hi.
  for (int iter = 0; iter < 200 && hi - lo > 1e-9 * hi; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (model.applicable(mid, p) &&
        model.efficiency(mid, p) >= target_efficiency) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

std::optional<double> iso_problem_size(const PerfModel& model, double p,
                                       double target_efficiency) {
  const auto n = iso_matrix_order(model, p, target_efficiency);
  if (!n) return std::nullopt;
  return (*n) * (*n) * (*n);
}

IsoFit fit_isoefficiency_exponent(const PerfModel& model,
                                  double target_efficiency,
                                  std::span<const double> procs) {
  // Least-squares fit of log W against log p.
  std::vector<double> xs, ys;
  xs.reserve(procs.size());
  ys.reserve(procs.size());
  for (double p : procs) {
    const auto w = iso_problem_size(model, p, target_efficiency);
    if (!w) continue;
    xs.push_back(std::log(p));
    ys.push_back(std::log(*w));
  }
  IsoFit fit;
  fit.points = xs.size();
  if (xs.size() < 2) return fit;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double m = static_cast<double>(xs.size());
  const double denom = m * sxx - sx * sx;
  fit.exponent = (m * sxy - sx * sy) / denom;
  fit.log_c = (sy - fit.exponent * sx) / m;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    fit.max_residual = std::max(
        fit.max_residual, std::fabs(ys[i] - (fit.log_c + fit.exponent * xs[i])));
  }
  return fit;
}

}  // namespace hpmm
