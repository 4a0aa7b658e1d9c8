#include "analysis/region_map.hpp"

#include <cctype>
#include <cmath>
#include <memory>

#include "analysis/bounds.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace hpmm {

char to_char(Region r) noexcept { return static_cast<char>(r); }

std::string to_string(Region r) {
  const MachineParams any;
  if (r == Region::kCannon25) return Cannon25DModel(any).name();
  for (const auto& model : table1_models(any)) {
    if (model->region() == r) return model->name();
  }
  return "none";
}

/// The 2.5D formulation's cheapest applicable configuration at (n, p) over
/// its replication envelope c = 2, 4, 8, ... with c^3 <= p (smallest comm
/// time, the first c on ties); null when none applies. c = 1 is
/// deliberately excluded: it duplicates plain Cannon, so Region::kCannon25
/// means "replication strictly helps here".
static std::unique_ptr<PerfModel> best_cannon25(const MachineParams& params,
                                                double n, double p) {
  std::unique_ptr<PerfModel> best;
  for (std::size_t c = 2; static_cast<double>(c) * static_cast<double>(c) *
                              static_cast<double>(c) <=
                          p;
       c *= 2) {
    auto model = std::make_unique<Cannon25DModel>(params, c);
    if (model->applicable(n, p) &&
        (!best || model->comm_time(n, p) < best->comm_time(n, p))) {
      best = std::move(model);
    }
  }
  return best;
}

/// A machine whose comm_time *is* the word count: zero startup and per-hop
/// cost, one time unit per word. Word volumes are machine-independent, so
/// the overlay needs no caller-supplied parameters.
static MachineParams word_count_machine() {
  MachineParams mp;
  mp.t_s = 0.0;
  mp.t_w = 1.0;
  mp.t_h = 0.0;
  return mp;
}

bool RegionMap::comm_optimal_at(double n, double p, Region r) {
  const MachineParams words = word_count_machine();
  // For 2.5D, the envelope's cheapest replicated configuration.
  std::unique_ptr<PerfModel> model;
  if (r == Region::kCannon25) model = best_cannon25(words, n, p);
  for (auto& candidate : table1_models(words)) {
    if (candidate->region() == r) model = std::move(candidate);
  }
  if (!model || !model->applicable(n, p)) return false;
  const double moved = model->comm_time(n, p);
  const CommLowerBound bound =
      comm_lower_bound(n, p, model->memory_per_proc(n, p));
  return bound.words > 0.0 && moved <= kBoundOptimalFactor * bound.words;
}

Region RegionMap::best_at(const MachineParams& params, double n, double p,
                          bool include_25d) {
  Region best = Region::kNone;
  double best_to = 0.0;
  for (const auto& model : table1_models(params)) {
    if (!model->applicable(n, p)) continue;
    const double to = model->t_overhead(n, p);
    if (best == Region::kNone || to < best_to) {
      best = model->region();
      best_to = to;
    }
  }
  const auto cannon25 = include_25d ? best_cannon25(params, n, p) : nullptr;
  if (cannon25 &&
      (best == Region::kNone || cannon25->t_overhead(n, p) < best_to)) {
    best = Region::kCannon25;
  }
  return best;
}

RegionMap::RegionMap(const MachineParams& params, double p_min, double p_max,
                     std::size_t p_cells, double n_min, double n_max,
                     std::size_t n_cells, bool include_25d, bool with_bounds)
    : params_(params),
      p_min_(p_min),
      p_max_(p_max),
      n_min_(n_min),
      n_max_(n_max),
      p_cells_(p_cells),
      n_cells_(n_cells),
      include_25d_(include_25d),
      with_bounds_(with_bounds) {
  require(p_min >= 1.0 && p_max > p_min, "RegionMap: bad p range");
  require(n_min >= 1.0 && n_max > n_min, "RegionMap: bad n range");
  require(p_cells >= 2 && n_cells >= 2, "RegionMap: need at least a 2x2 grid");
  cells_.resize(p_cells_ * n_cells_);
  optimal_.assign(p_cells_ * n_cells_, 0);
  for (std::size_t row = 0; row < n_cells_; ++row) {
    for (std::size_t col = 0; col < p_cells_; ++col) {
      const Region r = best_at(params_, n_at(row), p_at(col), include_25d_);
      cells_[row * p_cells_ + col] = r;
      if (with_bounds_) {
        optimal_[row * p_cells_ + col] =
            comm_optimal_at(n_at(row), p_at(col), r) ? 1 : 0;
      }
    }
  }
}

bool RegionMap::comm_optimal(std::size_t row, std::size_t col) const {
  require(row < n_cells_ && col < p_cells_, "RegionMap::comm_optimal: range");
  return optimal_[row * p_cells_ + col] != 0;
}

double RegionMap::p_at(std::size_t col) const {
  require(col < p_cells_, "RegionMap::p_at: out of range");
  const double t = static_cast<double>(col) / static_cast<double>(p_cells_ - 1);
  return p_min_ * std::pow(p_max_ / p_min_, t);
}

double RegionMap::n_at(std::size_t row) const {
  require(row < n_cells_, "RegionMap::n_at: out of range");
  const double t = static_cast<double>(row) / static_cast<double>(n_cells_ - 1);
  return n_min_ * std::pow(n_max_ / n_min_, t);
}

Region RegionMap::at(std::size_t row, std::size_t col) const {
  require(row < n_cells_ && col < p_cells_, "RegionMap::at: out of range");
  return cells_[row * p_cells_ + col];
}

double RegionMap::fraction(Region r) const {
  std::size_t count = 0;
  for (Region c : cells_) {
    if (c == r) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(cells_.size());
}

MachineSpaceMap::MachineSpaceMap(double n, double p, double ts_min,
                                 double ts_max, std::size_t ts_cells,
                                 double tw_min, double tw_max,
                                 std::size_t tw_cells)
    : n_(n),
      p_(p),
      ts_min_(ts_min),
      ts_max_(ts_max),
      tw_min_(tw_min),
      tw_max_(tw_max),
      ts_cells_(ts_cells),
      tw_cells_(tw_cells) {
  require(n >= 1.0 && p >= 1.0, "MachineSpaceMap: bad workload");
  require(ts_min > 0.0 && ts_max > ts_min, "MachineSpaceMap: bad t_s range");
  require(tw_min > 0.0 && tw_max > tw_min, "MachineSpaceMap: bad t_w range");
  require(ts_cells >= 2 && tw_cells >= 2, "MachineSpaceMap: need a 2x2 grid");
  cells_.resize(ts_cells_ * tw_cells_);
  for (std::size_t row = 0; row < tw_cells_; ++row) {
    for (std::size_t col = 0; col < ts_cells_; ++col) {
      cells_[row * ts_cells_ + col] = best_at(n_, p_, ts_at(col), tw_at(row));
    }
  }
}

Region MachineSpaceMap::best_at(double n, double p, double t_s, double t_w) {
  MachineParams mp;
  mp.t_s = t_s;
  mp.t_w = t_w;
  return RegionMap::best_at(mp, n, p);
}

double MachineSpaceMap::ts_at(std::size_t col) const {
  require(col < ts_cells_, "MachineSpaceMap::ts_at: out of range");
  const double t = static_cast<double>(col) / static_cast<double>(ts_cells_ - 1);
  return ts_min_ * std::pow(ts_max_ / ts_min_, t);
}

double MachineSpaceMap::tw_at(std::size_t row) const {
  require(row < tw_cells_, "MachineSpaceMap::tw_at: out of range");
  const double t = static_cast<double>(row) / static_cast<double>(tw_cells_ - 1);
  return tw_min_ * std::pow(tw_max_ / tw_min_, t);
}

Region MachineSpaceMap::at(std::size_t row, std::size_t col) const {
  require(row < tw_cells_ && col < ts_cells_, "MachineSpaceMap::at: range");
  return cells_[row * ts_cells_ + col];
}

double MachineSpaceMap::fraction(Region r) const {
  std::size_t count = 0;
  for (Region c : cells_) {
    if (c == r) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(cells_.size());
}

void MachineSpaceMap::print_ascii(std::ostream& os) const {
  os << "t_w up, t_s right; a=GK b=Berntsen c=Cannon d=DNS x=none  [n="
     << format_number(n_, 4) << ", p=" << format_number(p_, 4) << "]\n";
  for (std::size_t row = tw_cells_; row-- > 0;) {
    os << format_number(tw_at(row), 3) << " | ";
    for (std::size_t col = 0; col < ts_cells_; ++col) {
      os << to_char(at(row, col));
    }
    os << '\n';
  }
  os << "     +" << std::string(ts_cells_, '-') << '\n';
  os << "      t_s: " << format_number(ts_min_, 3) << " .. "
     << format_number(ts_max_, 3) << " (log scale)\n";
}

void RegionMap::print_ascii(std::ostream& os) const {
  os << "n up, p right; a=GK b=Berntsen c=Cannon d=DNS "
     << (include_25d_ ? "e=2.5D " : "")
     << (with_bounds_ ? "UPPERCASE=within 4x of comm lower bound " : "")
     << "x=none  [" << params_.label << "]\n";
  for (std::size_t row = n_cells_; row-- > 0;) {
    os << format_number(n_at(row), 3);
    os << std::string(row % 1 == 0 ? 1 : 1, ' ') << "| ";
    for (std::size_t col = 0; col < p_cells_; ++col) {
      const char ch = to_char(at(row, col));
      const bool up = with_bounds_ && comm_optimal(row, col);
      os << (up ? static_cast<char>(std::toupper(static_cast<unsigned char>(ch)))
                : ch);
    }
    os << '\n';
  }
  os << "      +" << std::string(p_cells_, '-') << '\n';
  os << "       p: " << format_number(p_min_, 3) << " .. "
     << format_number(p_max_, 3) << " (log scale)\n";
}

}  // namespace hpmm
