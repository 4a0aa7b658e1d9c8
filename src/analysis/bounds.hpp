#pragma once

#include <string>

#include "analysis/perf_model.hpp"

namespace hpmm {

/// "2D", "2.5D" or "3D" (BoundsClass lives in analysis/perf_model.hpp: each
/// model declares its own class).
std::string to_string(BoundsClass cls);

/// Communication lower bound at one (n, p, M) point, in words per
/// processor. Two regimes, both floors on the words some processor must
/// send or receive when multiplying n x n matrices over p processors with
/// M words of local memory:
///
///  * memory-dependent (Hong-Kung / Irony-Toledo-Tiskin):
///      words >= n^3 / (p sqrt(M)) - M
///    -- a processor doing its n^3/p multiply-adds through an M-word
///    window. The -M term credits data resident at start, so the bound
///    degenerates to 0 when the whole working set fits (p = 1).
///  * memory-independent (Loomis-Whitney / BDHL):
///      words >= 3 (n^3/p)^{2/3} - 3 n^2/p
///    -- independent of M; the subtracted term is the single-copy
///    balanced share of A, B and C a processor owns at start/end.
///
/// The binding floor is the max of the two. All initial distributions the
/// simulator charges traffic for are single-copy, so measured word counts
/// must dominate both regimes; replicated layouts only communicate *more*
/// during their broadcast phases.
struct CommLowerBound {
  double memory_words = 0.0;         ///< the M the bound was evaluated at
  double words_mem_dependent = 0.0;  ///< per-processor words, >= 0
  double words_mem_independent = 0.0;
  double words = 0.0;        ///< binding floor: max of the two regimes
  double total_words = 0.0;  ///< p * words
  double latency = 0.0;      ///< messages per processor: words / M
};

/// Evaluate the bound. Requires n >= 1, p >= 1 and memory_words > 0.
CommLowerBound comm_lower_bound(double n, double p, double memory_words);

/// Perfect-strong-scaling range [p_min, p_max] of a class on a machine with
/// M words of memory per processor: the processor counts over which running
/// time (equivalently, per-processor traffic) can halve when p doubles.
///
///  * 2D:   degenerate at p_2d = 3n^2/M -- optimal only where one copy
///          exactly fills memory; more processors leave memory idle.
///  * 2.5D: [p_2d, p_3d] with p_3d = p_2d^{3/2} -- replication c = pM/(3n^2)
///          grows with p until it hits the c <= p^{1/3} ceiling.
///  * 3D:   degenerate at p_3d -- below it the p^{1/3}-fold replicas do not
///          fit; above it the n^2/p^{2/3} traffic no longer halves.
///
/// Both endpoints are clamped to >= 1.
struct StrongScalingRange {
  double p_min = 1.0;
  double p_max = 1.0;
};

StrongScalingRange strong_scaling_range(BoundsClass cls, double n,
                                        double memory_words);

/// Measured traffic against the lower bound: the scoreboard entry of one
/// (algorithm, n, p) point. ratio >= 1 is the oracle invariant; ratio is
/// +inf when the bound is vacuous (0) yet traffic was measured, and 1 when
/// both are 0 (p = 1: nothing to move, nothing required).
struct DistanceFromOptimal {
  std::string algorithm;
  BoundsClass cls = BoundsClass::k2D;
  double n = 0.0;
  double p = 0.0;
  double measured_total_words = 0.0;
  CommLowerBound bound;
  double ratio = 1.0;
};

/// Score an already-measured total word count against the bound evaluated
/// at the model's own memory footprint M = model.memory_per_proc(n, p).
/// The model supplies the name, the class and M; it never runs.
DistanceFromOptimal distance_from_measured(const PerfModel& model, double n,
                                           double p,
                                           double measured_total_words);

}  // namespace hpmm
