#pragma once

#include <memory>
#include <string>
#include <vector>

#include "machine/params.hpp"

namespace hpmm {

/// Communication-geometry class of a formulation: how many copies of the
/// operands it keeps and therefore which communication lower bound and
/// perfect-strong-scaling range apply (Ballard-Demmel-Holtz-Lipshitz,
/// PAPERS.md #1; analysis/bounds.hpp).
enum class BoundsClass {
  k2D,   ///< one copy of each operand (simple, cannon, fox families)
  k25D,  ///< c replicated copies, 1 < c < p^{1/3} (cannon25d)
  k3D    ///< full p^{1/3}-fold replication (berntsen, dns, gk families)
};

/// Which formulation is the best choice at a point of the (p, n) plane —
/// the regions of Figures 1-3 (analysis/region_map.hpp). Letters follow the
/// paper's legend.
enum class Region : char {
  kNone = 'x',      ///< p > n^3: no formulation applicable
  kGk = 'a',        ///< GK algorithm best
  kBerntsen = 'b',  ///< Berntsen's algorithm best
  kCannon = 'c',    ///< Cannon's algorithm best
  kDns = 'd',       ///< DNS algorithm best
  kCannon25 = 'e'   ///< 2.5D Cannon best for some replication c > 1
                    ///< (extended maps only; absent from the paper's figures)
};

/// Analytical performance model of one parallel formulation: the paper's
/// T_p expressions (Section 4) as continuous functions of matrix order n and
/// processor count p, for a given set of machine parameters.
///
/// All times are in multiply-add units; W = n^3.
class PerfModel {
 public:
  explicit PerfModel(MachineParams params) : params_(std::move(params)) {}
  virtual ~PerfModel() = default;

  virtual std::string name() const = 0;

  /// Communication (and other overhead) time on the critical path; i.e.
  /// T_p = W/p + t_overhead_per_proc. For DNS this includes the data
  /// serialisation term proportional to n^3/p.
  virtual double comm_time(double n, double p) const = 0;

  /// Largest processor count the formulation can use for order n — the
  /// concurrency bound h(W) of Section 5 (e.g. n^2 for Cannon, n^{3/2} for
  /// Berntsen, n^3 for GK/DNS).
  virtual double max_procs(double n) const = 0;

  /// Smallest processor count (only DNS is bounded below, by n^2).
  virtual double min_procs(double n) const { (void)n; return 1.0; }

  /// Words of storage per processor (Section 4's memory-efficiency claims).
  virtual double memory_per_proc(double n, double p) const;

  /// The lower bound and strong-scaling range this formulation is scored
  /// against (analysis/bounds.hpp).
  virtual BoundsClass bounds_class() const = 0;

  /// Table 1's asymptotic isoefficiency exponent x in W ~ p^x, polylog
  /// factors dropped: berntsen 2, cannon 1.5, gk and dns 1.
  virtual double isoefficiency_exponent() const = 0;

  /// The letter marking this formulation on the region maps of Figures
  /// 1-3; kNone for formulations the maps never draw.
  virtual Region region() const { return Region::kNone; }

  /// True when (n, p) lies in the formulation's range of applicability
  /// (continuous relaxation: divisibility constraints are ignored).
  bool applicable(double n, double p) const {
    return p >= min_procs(n) && p <= max_procs(n) && p >= 1.0 && n >= 1.0;
  }

  /// T_p(n, p) = n^3/p + comm_time(n, p).
  double t_parallel(double n, double p) const {
    return n * n * n / p + comm_time(n, p);
  }
  /// T_o(W, p) = p T_p - W.
  double t_overhead(double n, double p) const {
    return p * comm_time(n, p);
  }
  /// S = W / T_p.
  double speedup(double n, double p) const {
    return n * n * n / t_parallel(n, p);
  }
  /// E = S / p = 1 / (1 + T_o/W).
  double efficiency(double n, double p) const {
    return speedup(n, p) / p;
  }

  const MachineParams& params() const noexcept { return params_; }

 protected:
  double t_s() const noexcept { return params_.t_s; }
  double t_w() const noexcept { return params_.t_w; }

 private:
  MachineParams params_;
};

/// Simple algorithm, Eq. 2: T_p = n^3/p + 2 t_s log p + 2 t_w n^2/sqrt(p).
class SimpleModel final : public PerfModel {
 public:
  using PerfModel::PerfModel;
  std::string name() const override { return "simple"; }
  double comm_time(double n, double p) const override;
  double max_procs(double n) const override { return n * n; }
  double memory_per_proc(double n, double p) const override;
  BoundsClass bounds_class() const override { return BoundsClass::k2D; }
  double isoefficiency_exponent() const override { return 1.5; }
};

/// The simple algorithm with ring all-to-alls on a plain mesh (no hypercube
/// links): T_p = n^3/p + 2 (sqrt(p)-1)(t_s + t_w n^2/p). Exact for the
/// simulated "simple-ring" variant; shows what the hypercube's log-factor
/// buys the broadcast-heavy formulation (Cannon, by contrast, costs the
/// same on mesh and hypercube).
class SimpleRingModel final : public PerfModel {
 public:
  using PerfModel::PerfModel;
  std::string name() const override { return "simple-ring"; }
  double comm_time(double n, double p) const override;
  double max_procs(double n) const override { return n * n; }
  double memory_per_proc(double n, double p) const override;
  BoundsClass bounds_class() const override { return BoundsClass::k2D; }
  double isoefficiency_exponent() const override { return 1.5; }
};

/// Cannon's algorithm, Eq. 3: T_p = n^3/p + 2 t_s sqrt(p) + 2 t_w n^2/sqrt(p).
class CannonModel final : public PerfModel {
 public:
  using PerfModel::PerfModel;
  std::string name() const override { return "cannon"; }
  double comm_time(double n, double p) const override;
  double max_procs(double n) const override { return n * n; }
  double memory_per_proc(double n, double p) const override;
  BoundsClass bounds_class() const override { return BoundsClass::k2D; }
  double isoefficiency_exponent() const override { return 1.5; }
  Region region() const override { return Region::kCannon; }
};

/// 2.5D memory-replicated Cannon (Ballard-Demmel-Holtz-Lipshitz) with
/// replication factor c on a sqrt(p/c) x sqrt(p/c) x c grid:
///   T_p = n^3/p + (3 log2 c + 2 sqrt(p/c^3)) (t_s + t_w c n^2/p),
/// i.e. 2 log2 c broadcast rounds + 2 sqrt(p/c^3) per-layer Cannon rounds
/// (alignment + shifts) + log2 c reduction rounds, each moving the
/// c n^2/p-word resident block. Degenerates to Cannon's Eq. 3 at c = 1;
/// memory rises to Theta(c n^2/p) per processor and the per-layer bandwidth
/// term drops to 2 t_w n^2/sqrt(pc). Exact for the simulated cannon25d
/// under one-port cut-through routing.
class Cannon25DModel final : public PerfModel {
 public:
  explicit Cannon25DModel(MachineParams params, std::size_t c = 2)
      : PerfModel(std::move(params)), c_(static_cast<double>(c)) {}
  std::string name() const override { return "cannon25d"; }
  double comm_time(double n, double p) const override;
  /// q <= n per layer: p = c q^2 <= c n^2.
  double max_procs(double n) const override { return c_ * n * n; }
  /// c <= p^{1/3}, i.e. p >= c^3.
  double min_procs(double n) const override { (void)n; return c_ * c_ * c_; }
  double memory_per_proc(double n, double p) const override;
  BoundsClass bounds_class() const override { return BoundsClass::k25D; }
  double isoefficiency_exponent() const override { return 1.5; }
  Region region() const override { return Region::kCannon25; }

  double replication() const noexcept { return c_; }

 private:
  double c_;
};

/// Fox's algorithm, pipelined variant of Eq. 4:
/// T_p = n^3/p + 2 t_w n^2/sqrt(p) + t_s p.
class FoxModel final : public PerfModel {
 public:
  using PerfModel::PerfModel;
  std::string name() const override { return "fox"; }
  double comm_time(double n, double p) const override;
  double max_procs(double n) const override { return n * n; }
  double memory_per_proc(double n, double p) const override;
  BoundsClass bounds_class() const override { return BoundsClass::k2D; }
  double isoefficiency_exponent() const override { return 1.5; }
};

/// Berntsen's algorithm, Eq. 5:
/// T_p = n^3/p + 2 t_s p^{1/3} + (1/3) t_s log p + 3 t_w n^2/p^{2/3},
/// restricted to p <= n^{3/2}.
class BerntsenModel final : public PerfModel {
 public:
  using PerfModel::PerfModel;
  std::string name() const override { return "berntsen"; }
  double comm_time(double n, double p) const override;
  double max_procs(double n) const override;
  double memory_per_proc(double n, double p) const override;
  BoundsClass bounds_class() const override { return BoundsClass::k3D; }
  double isoefficiency_exponent() const override { return 2.0; }
  Region region() const override { return Region::kBerntsen; }
};

/// DNS algorithm, Eq. 6:
/// T_p = n^3/p + (t_s + t_w)(5 log(p/n^2) + 2 n^3/p), n^2 <= p <= n^3.
/// The n^3/p overhead term caps efficiency at 1/(1 + 2 t_s + 2 t_w).
class DnsModel final : public PerfModel {
 public:
  using PerfModel::PerfModel;
  std::string name() const override { return "dns"; }
  double comm_time(double n, double p) const override;
  double max_procs(double n) const override { return n * n * n; }
  double min_procs(double n) const override { return n * n; }
  double memory_per_proc(double n, double p) const override;
  BoundsClass bounds_class() const override { return BoundsClass::k3D; }
  double isoefficiency_exponent() const override { return 1.0; }
  Region region() const override { return Region::kDns; }

  /// The efficiency ceiling 1/(1 + 2(t_s + t_w)) of Section 5.3.
  double efficiency_ceiling() const;
};

/// GK algorithm, Eq. 7:
/// T_p = n^3/p + (5/3) t_s log p + (5/3) t_w n^2 p^{-2/3} log p, p <= n^3.
class GkModel final : public PerfModel {
 public:
  using PerfModel::PerfModel;
  std::string name() const override { return "gk"; }
  double comm_time(double n, double p) const override;
  double max_procs(double n) const override { return n * n * n; }
  double memory_per_proc(double n, double p) const override;
  BoundsClass bounds_class() const override { return BoundsClass::k3D; }
  double isoefficiency_exponent() const override { return 1.0; }
  Region region() const override { return Region::kGk; }
};

/// GK with the Johnsson-Ho one-to-all broadcast (Section 5.4.1):
/// T_p = n^3/p + 5 t_w n^2 p^{-2/3} + (5/3) t_s log p
///       + 10 n p^{-1/3} sqrt((1/3) t_s t_w log p).
/// Valid only at granularity n^3 >= (t_s/t_w)^{3/2} p (log p)^{3/2}
/// (min_n_for_packets); below it the packetised pipeline degenerates.
class GkJohnssonHoModel final : public PerfModel {
 public:
  using PerfModel::PerfModel;
  std::string name() const override { return "gk-jh"; }
  double comm_time(double n, double p) const override;
  double max_procs(double n) const override { return n * n * n; }
  double memory_per_proc(double n, double p) const override;
  BoundsClass bounds_class() const override { return BoundsClass::k3D; }
  double isoefficiency_exponent() const override { return 1.0; }

  /// Granularity bound: smallest n for which every pipelined packet holds at
  /// least one word, n^2/p^{2/3} >= (t_s/t_w) log p (Section 5.4.1).
  double min_n_for_packets(double p) const;
};

/// Simple algorithm with all-port communication, Eq. 16:
/// T_p = n^3/p + 2 t_w n^2/(sqrt(p) log p) + (1/2) t_s log p,
/// requiring n >= (1/2) sqrt(p) log p.
class SimpleAllPortModel final : public PerfModel {
 public:
  using PerfModel::PerfModel;
  std::string name() const override { return "simple-allport"; }
  double comm_time(double n, double p) const override;
  double max_procs(double n) const override { return n * n; }
  double memory_per_proc(double n, double p) const override;
  BoundsClass bounds_class() const override { return BoundsClass::k2D; }
  double isoefficiency_exponent() const override { return 1.0; }

  /// Message-granularity bound of Section 7.1: n >= (1/2) sqrt(p) log p.
  double min_n_for_channels(double p) const;
};

/// GK with all-port communication, Eq. 17:
/// T_p = n^3/p + t_s log p + 9 t_w n^2/(p^{2/3} log p) + 6 n p^{-1/3} sqrt(t_s t_w).
class GkAllPortModel final : public PerfModel {
 public:
  using PerfModel::PerfModel;
  std::string name() const override { return "gk-allport"; }
  double comm_time(double n, double p) const override;
  double max_procs(double n) const override { return n * n * n; }
  double memory_per_proc(double n, double p) const override;
  BoundsClass bounds_class() const override { return BoundsClass::k3D; }
  double isoefficiency_exponent() const override { return 1.0; }

  /// Granularity bound of Section 7.2 (problem must grow as p (log p)^3).
  double min_n_for_channels(double p) const;
};

/// GK on the fully connected CM-5 view, Eq. 18:
/// T_p = n^3/p + t_s (log p + 2) + t_w n^2 p^{-2/3} (log p + 2).
class GkCm5Model final : public PerfModel {
 public:
  using PerfModel::PerfModel;
  std::string name() const override { return "gk-fc"; }
  double comm_time(double n, double p) const override;
  double max_procs(double n) const override { return n * n * n; }
  double memory_per_proc(double n, double p) const override;
  BoundsClass bounds_class() const override { return BoundsClass::k3D; }
  double isoefficiency_exponent() const override { return 1.0; }
};

/// The four algorithms the paper compares in Sections 5-6, in Table 1 order:
/// Berntsen, Cannon, GK, DNS — with the given machine parameters. The one
/// list behind select_among_table1 and the region maps; every comparison
/// over it breaks ties in this order.
std::vector<std::unique_ptr<PerfModel>> table1_models(const MachineParams& params);

}  // namespace hpmm
