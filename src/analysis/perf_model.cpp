#include "analysis/perf_model.hpp"

#include <cmath>

namespace hpmm {
namespace {

double log2p(double p) { return p > 1.0 ? std::log2(p) : 0.0; }

}  // namespace

double PerfModel::memory_per_proc(double n, double p) const {
  // Memory-efficient default: the three resident blocks.
  return 3.0 * n * n / p;
}

// ---- Simple (Eq. 2) --------------------------------------------------------

double SimpleModel::comm_time(double n, double p) const {
  if (p <= 1.0) return 0.0;
  return 2.0 * t_s() * log2p(p) + 2.0 * t_w() * n * n / std::sqrt(p);
}

double SimpleModel::memory_per_proc(double n, double p) const {
  // Each processor gathers a whole block-row of A and block-column of B:
  // O(n^2/sqrt(p)) words (Section 4.1).
  return 2.0 * n * n / std::sqrt(p) + n * n / p;
}

// ---- Simple with ring all-to-alls (mesh) -----------------------------------

double SimpleRingModel::comm_time(double n, double p) const {
  if (p <= 1.0) return 0.0;
  return 2.0 * (std::sqrt(p) - 1.0) * (t_s() + t_w() * n * n / p);
}

double SimpleRingModel::memory_per_proc(double n, double p) const {
  return 2.0 * n * n / std::sqrt(p) + n * n / p;
}

// ---- Cannon (Eq. 3) --------------------------------------------------------

double CannonModel::comm_time(double n, double p) const {
  if (p <= 1.0) return 0.0;
  return 2.0 * t_s() * std::sqrt(p) + 2.0 * t_w() * n * n / std::sqrt(p);
}

double CannonModel::memory_per_proc(double n, double p) const {
  return 3.0 * n * n / p;
}

// ---- 2.5D memory-replicated Cannon -----------------------------------------

double Cannon25DModel::comm_time(double n, double p) const {
  if (p <= 1.0) return 0.0;
  const double m = c_ * n * n / p;  // resident block, (n/q)^2 words
  const double rounds =
      3.0 * log2p(c_) + 2.0 * std::sqrt(p / (c_ * c_ * c_));
  return rounds * (t_s() + t_w() * m);
}

double Cannon25DModel::memory_per_proc(double n, double p) const {
  // The replicated A, B and partial-C blocks: Theta(c n^2/p).
  return 3.0 * c_ * n * n / p;
}

// ---- Fox (Eq. 4, pipelined) ------------------------------------------------

double FoxModel::comm_time(double n, double p) const {
  if (p <= 1.0) return 0.0;
  return 2.0 * t_w() * n * n / std::sqrt(p) + t_s() * p;
}

double FoxModel::memory_per_proc(double n, double p) const {
  return 4.0 * n * n / p;  // A, B, C and the broadcast buffer
}

// ---- Berntsen (Eq. 5) ------------------------------------------------------

double BerntsenModel::comm_time(double n, double p) const {
  if (p <= 1.0) return 0.0;
  return 2.0 * t_s() * std::cbrt(p) + (1.0 / 3.0) * t_s() * log2p(p) +
         3.0 * t_w() * n * n / std::pow(p, 2.0 / 3.0);
}

double BerntsenModel::max_procs(double n) const { return std::pow(n, 1.5); }

double BerntsenModel::memory_per_proc(double n, double p) const {
  // 2 n^2/p for the operand blocks plus n^2/p^{2/3} for the partial product
  // (Section 4.4).
  return 2.0 * n * n / p + n * n / std::pow(p, 2.0 / 3.0);
}

// ---- DNS (Eq. 6) -----------------------------------------------------------

double DnsModel::comm_time(double n, double p) const {
  if (p <= 1.0) return 0.0;
  const double r = p / (n * n);
  return (t_s() + t_w()) * (5.0 * log2p(r) + 2.0 * n * n * n / p);
}

double DnsModel::memory_per_proc(double n, double p) const {
  (void)n;
  (void)p;
  return 3.0;  // one a, b and c element per processor
}

double DnsModel::efficiency_ceiling() const {
  return 1.0 / (1.0 + 2.0 * (t_s() + t_w()));
}

// ---- GK (Eq. 7) ------------------------------------------------------------

double GkModel::comm_time(double n, double p) const {
  if (p <= 1.0) return 0.0;
  return (5.0 / 3.0) * t_s() * log2p(p) +
         (5.0 / 3.0) * t_w() * n * n / std::pow(p, 2.0 / 3.0) * log2p(p);
}

double GkModel::memory_per_proc(double n, double p) const {
  return 3.0 * n * n / std::pow(p, 2.0 / 3.0);
}

// ---- GK + Johnsson-Ho (Section 5.4.1) --------------------------------------

double GkJohnssonHoModel::comm_time(double n, double p) const {
  if (p <= 1.0) return 0.0;
  const double lp = log2p(p);
  const double m = n * n / std::pow(p, 2.0 / 3.0);
  // Distribution: 4 t_w m + (4/3) t_s log p + 8 n p^{-1/3} sqrt((1/3) t_s t_w log p)
  // Gather/sum:     t_w m + (1/3) t_s log p + 2 n p^{-1/3} sqrt((1/3) t_s t_w log p)
  const double pipe = n / std::cbrt(p) * std::sqrt(t_s() * t_w() * lp / 3.0);
  return 5.0 * t_w() * m + (5.0 / 3.0) * t_s() * lp + 10.0 * pipe;
}

double GkJohnssonHoModel::memory_per_proc(double n, double p) const {
  return 3.0 * n * n / std::pow(p, 2.0 / 3.0);
}

double GkJohnssonHoModel::min_n_for_packets(double p) const {
  if (p <= 1.0 || t_w() <= 0.0) return 1.0;
  // n^2/p^{2/3} >= (t_s/t_w) log p.
  return std::sqrt(t_s() / t_w() * log2p(p)) * std::cbrt(p);
}

// ---- Simple all-port (Eq. 16) ----------------------------------------------

double SimpleAllPortModel::comm_time(double n, double p) const {
  if (p <= 1.0) return 0.0;
  const double lp = log2p(p);
  return 2.0 * t_w() * n * n / (std::sqrt(p) * lp) + 0.5 * t_s() * lp;
}

double SimpleAllPortModel::memory_per_proc(double n, double p) const {
  return 2.0 * n * n / std::sqrt(p) + n * n / p;
}

double SimpleAllPortModel::min_n_for_channels(double p) const {
  return 0.5 * std::sqrt(p) * log2p(p);
}

// ---- GK all-port (Eq. 17) --------------------------------------------------

double GkAllPortModel::comm_time(double n, double p) const {
  if (p <= 1.0) return 0.0;
  const double lp = log2p(p);
  return t_s() * lp + 9.0 * t_w() * n * n / (std::pow(p, 2.0 / 3.0) * lp) +
         6.0 * n / std::cbrt(p) * std::sqrt(t_s() * t_w());
}

double GkAllPortModel::memory_per_proc(double n, double p) const {
  return 3.0 * n * n / std::pow(p, 2.0 / 3.0);
}

double GkAllPortModel::min_n_for_channels(double p) const {
  if (p <= 1.0 || t_w() <= 0.0) return 1.0;
  // Section 7.2: W must grow as p (log p)^3, i.e. n^3 ~ p (log p)^3 at the
  // granularity limit n^2/p^{2/3} >= log^2 p (one word per channel per
  // packet round).
  return std::cbrt(p) * log2p(p);
}

// ---- GK on the CM-5 (Eq. 18) -----------------------------------------------

double GkCm5Model::comm_time(double n, double p) const {
  if (p <= 1.0) return 0.0;
  const double lp2 = log2p(p) + 2.0;
  return t_s() * lp2 + t_w() * n * n / std::pow(p, 2.0 / 3.0) * lp2;
}

double GkCm5Model::memory_per_proc(double n, double p) const {
  return 3.0 * n * n / std::pow(p, 2.0 / 3.0);
}

// ---- factories --------------------------------------------------------------

std::vector<std::unique_ptr<PerfModel>> table1_models(const MachineParams& params) {
  std::vector<std::unique_ptr<PerfModel>> out;
  out.push_back(std::make_unique<BerntsenModel>(params));
  out.push_back(std::make_unique<CannonModel>(params));
  out.push_back(std::make_unique<GkModel>(params));
  out.push_back(std::make_unique<DnsModel>(params));
  return out;
}

}  // namespace hpmm
