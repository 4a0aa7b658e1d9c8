#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "analysis/perf_model.hpp"

namespace hpmm {

/// The region's legend letter, and the name of the formulation drawn with
/// it ("none" for Region::kNone). Region itself lives in
/// analysis/perf_model.hpp: each model declares its own letter.
char to_char(Region r) noexcept;
std::string to_string(Region r);

/// Rasterized best-algorithm map over a log-log grid of (p, n), comparing
/// the four Table 1 formulations by total overhead T_o within their ranges
/// of applicability (Section 6).
class RegionMap {
 public:
  /// A winner counts as communication-optimal when its modeled word volume
  /// is within this factor of the lower bound at its own memory footprint.
  static constexpr double kBoundOptimalFactor = 4.0;

  /// Grid: p in [p_min, p_max], n in [n_min, n_max], log-spaced.
  /// With include_25d the comparison additionally admits the 2.5D
  /// memory-replicated Cannon formulation (the envelope over replication
  /// factors c = 2, 4, 8, ... with c^3 <= p), labelled Region::kCannon25.
  /// The default reproduces the paper's four-way Figures 1-3 exactly.
  /// With with_bounds, print_ascii() upper-cases every cell whose winner is
  /// communication-optimal there (within kBoundOptimalFactor of the lower
  /// bound, analysis/bounds.hpp); the default rendering is untouched.
  RegionMap(const MachineParams& params, double p_min, double p_max,
            std::size_t p_cells, double n_min, double n_max,
            std::size_t n_cells, bool include_25d = false,
            bool with_bounds = false);

  /// The winner at one point (usable without building a grid).
  static Region best_at(const MachineParams& params, double n, double p,
                        bool include_25d = false);

  /// Whether formulation `r` moves no more than kBoundOptimalFactor times
  /// the communication lower bound at (n, p), comparing the model's word
  /// volume (its comm time on a t_s = t_h = 0, t_w = 1 machine) against the
  /// bound at the model's own memory footprint. Machine-independent: word
  /// counts do not depend on t_s/t_w. False for Region::kNone.
  static bool comm_optimal_at(double n, double p, Region r);

  /// The overlay bit of one grid cell (meaningful when built with_bounds).
  bool comm_optimal(std::size_t row, std::size_t col) const;

  std::size_t p_cells() const noexcept { return p_cells_; }
  std::size_t n_cells() const noexcept { return n_cells_; }
  double p_at(std::size_t col) const;
  double n_at(std::size_t row) const;
  Region at(std::size_t row, std::size_t col) const;

  /// Fraction of grid cells labelled with `r`.
  double fraction(Region r) const;

  /// ASCII rendering: n increases upward, p rightward, one letter per cell —
  /// directly comparable with Figures 1-3.
  void print_ascii(std::ostream& os) const;

 private:
  MachineParams params_;
  double p_min_, p_max_, n_min_, n_max_;
  std::size_t p_cells_, n_cells_;
  bool include_25d_ = false;
  bool with_bounds_ = false;
  std::vector<Region> cells_;  // row-major, row 0 = smallest n
  std::vector<char> optimal_;  // parallel to cells_; 1 = within the bound
};

/// The dual view of Section 6: for a *fixed* workload (n, p), which
/// formulation wins as the machine's technology parameters vary — a
/// rasterized map over the (t_s, t_w) plane (log-log). The paper's three
/// parameter sets (Figures 1-3) are three vertical lines of this map.
class MachineSpaceMap {
 public:
  MachineSpaceMap(double n, double p, double ts_min, double ts_max,
                  std::size_t ts_cells, double tw_min, double tw_max,
                  std::size_t tw_cells);

  /// The winner for one machine (same T_o comparison as RegionMap).
  static Region best_at(double n, double p, double t_s, double t_w);

  std::size_t ts_cells() const noexcept { return ts_cells_; }
  std::size_t tw_cells() const noexcept { return tw_cells_; }
  double ts_at(std::size_t col) const;
  double tw_at(std::size_t row) const;
  Region at(std::size_t row, std::size_t col) const;
  double fraction(Region r) const;

  /// ASCII rendering: t_w increases upward, t_s rightward.
  void print_ascii(std::ostream& os) const;

 private:
  double n_, p_;
  double ts_min_, ts_max_, tw_min_, tw_max_;
  std::size_t ts_cells_, tw_cells_;
  std::vector<Region> cells_;
};

}  // namespace hpmm
