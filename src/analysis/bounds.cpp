#include "analysis/bounds.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace hpmm {

std::string to_string(BoundsClass cls) {
  switch (cls) {
    case BoundsClass::k2D: return "2D";
    case BoundsClass::k25D: return "2.5D";
    case BoundsClass::k3D: return "3D";
  }
  return "?";
}

CommLowerBound comm_lower_bound(double n, double p, double memory_words) {
  require(n >= 1.0, "comm_lower_bound: n must be >= 1");
  require(p >= 1.0, "comm_lower_bound: p must be >= 1");
  require(memory_words > 0.0, "comm_lower_bound: memory must be positive");

  const double flops = n * n * n / p;  // multiply-adds per processor
  CommLowerBound b;
  b.memory_words = memory_words;
  b.words_mem_dependent =
      std::max(0.0, flops / std::sqrt(memory_words) - memory_words);
  b.words_mem_independent =
      std::max(0.0, 3.0 * std::cbrt(flops * flops) - 3.0 * n * n / p);
  b.words = std::max(b.words_mem_dependent, b.words_mem_independent);
  b.total_words = p * b.words;
  b.latency = b.words / memory_words;
  return b;
}

StrongScalingRange strong_scaling_range(BoundsClass cls, double n,
                                        double memory_words) {
  require(n >= 1.0, "strong_scaling_range: n must be >= 1");
  require(memory_words > 0.0, "strong_scaling_range: memory must be positive");
  const double p_2d = std::max(1.0, 3.0 * n * n / memory_words);
  const double p_3d = std::pow(p_2d, 1.5);
  switch (cls) {
    case BoundsClass::k2D: return {p_2d, p_2d};
    case BoundsClass::k25D: return {p_2d, p_3d};
    case BoundsClass::k3D: return {p_3d, p_3d};
  }
  return {p_2d, p_2d};
}

DistanceFromOptimal distance_from_measured(const PerfModel& model, double n,
                                           double p,
                                           double measured_total_words) {
  require(measured_total_words >= 0.0,
          "distance_from_measured: negative word count");
  DistanceFromOptimal d;
  d.algorithm = model.name();
  d.cls = model.bounds_class();
  d.n = n;
  d.p = p;
  d.measured_total_words = measured_total_words;
  d.bound = comm_lower_bound(n, p, model.memory_per_proc(n, p));
  if (d.bound.total_words > 0.0) {
    d.ratio = measured_total_words / d.bound.total_words;
  } else {
    d.ratio = measured_total_words > 0.0
                  ? std::numeric_limits<double>::infinity()
                  : 1.0;
  }
  return d;
}

}  // namespace hpmm
