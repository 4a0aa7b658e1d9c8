#pragma once

#include <optional>
#include <span>
#include <vector>

#include "analysis/perf_model.hpp"

namespace hpmm {

/// Numeric isoefficiency analysis (Section 3): for a model and a target
/// efficiency E, find how fast the problem size W = n^3 must grow with p to
/// hold E — the isoefficiency function f_E(p) of Equation (1).

/// The smallest matrix order n at which the model achieves efficiency >= E
/// on p processors, found by bisection (efficiency is monotonically
/// increasing in n at fixed p for every model in this library, up to the
/// concurrency bound). Returns nullopt when E is unreachable for this p —
/// e.g. above the DNS efficiency ceiling, or beyond a concurrency limit.
std::optional<double> iso_matrix_order(const PerfModel& model, double p,
                                       double target_efficiency);

/// The isoefficiency problem size W(p) = n^3 at fixed efficiency, or nullopt.
std::optional<double> iso_problem_size(const PerfModel& model, double p,
                                       double target_efficiency);

/// Result of fitting W(p) ~ c * p^x over a range of processor counts.
struct IsoFit {
  double exponent = 0.0;    ///< x in W ~ p^x (log-log least squares)
  double log_c = 0.0;       ///< intercept
  double max_residual = 0.0;///< worst |log W - fit| over the sample
  std::size_t points = 0;   ///< processor counts that admitted the efficiency
};

/// Fit the isoefficiency exponent over the given processor counts. Points
/// where the efficiency is unreachable are skipped (reflected in `points`).
IsoFit fit_isoefficiency_exponent(const PerfModel& model,
                                  double target_efficiency,
                                  std::span<const double> procs);

}  // namespace hpmm
