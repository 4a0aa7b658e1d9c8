#pragma once

#include "algorithms/parallel_matmul.hpp"

namespace hpmm {

/// The Gupta-Kumar (GK) variant of the DNS algorithm (Section 4.6) — the
/// paper's contribution. p = 2^{3q} processors (any 1 <= p <= n^3) arranged
/// as a p^{1/3} x p^{1/3} x p^{1/3} grid of *blocks*: the DNS data flow of
/// Section 4.5.1 with every single-element operation replaced by an
/// (n/p^{1/3}) x (n/p^{1/3}) block operation.
///
/// Stages:
///  1. distribute: A block (j, t) travels (0,j,t) -> (t,j,t), then is
///     broadcast along its k-line; B block (t, k) travels (0,t,k) -> (t,t,k),
///     then along its j-line;
///  2. every processor multiplies its block pair (n^3/p multiply-adds);
///  3. the p^{1/3} partial products on each i-line are summed to i = 0.
///
/// Paper models:
///   hypercube, naive broadcast (Eq. 7):
///     T_p = n^3/p + (5/3) t_s log p + (5/3) t_w n^2 p^{-2/3} log p
///   fully connected / CM-5 (Eq. 18):
///     T_p = n^3/p + t_s (log p + 2) + t_w n^2 p^{-2/3} (log p + 2)
///   Johnsson-Ho broadcast (Section 5.4.1) and all-port (Eq. 17) variants
///   are modeled collectives (see DESIGN.md).
class GkAlgorithm final : public ParallelMatmul {
 public:
  enum class Broadcast {
    kBinomial,    ///< naive one-to-all broadcast — Eq. 7 / Eq. 18
    kJohnssonHo,  ///< pipelined broadcast of [20] — Section 5.4.1 (modeled)
    kAllPort      ///< simultaneous all-port communication — Eq. 17 (modeled)
  };
  enum class Interconnect {
    kHypercube,      ///< the paper's primary architecture
    kFullyConnected  ///< the CM-5 view of Section 9 (one-hop moves)
  };

  explicit GkAlgorithm(Broadcast broadcast = Broadcast::kBinomial,
                       Interconnect interconnect = Interconnect::kHypercube)
      : broadcast_(broadcast), interconnect_(interconnect) {}

  std::string name() const override;
  std::string applicability() const override {
    return "p = 2^(3q) <= n^3, p^(1/3) | n";
  }
  void check_applicable(std::size_t n, std::size_t p) const override;
  MatmulResult run(const Matrix& a, const Matrix& b, std::size_t p,
                   const MachineParams& params) const override;

  Broadcast broadcast() const noexcept { return broadcast_; }
  Interconnect interconnect() const noexcept { return interconnect_; }

 private:
  Broadcast broadcast_;
  Interconnect interconnect_;
};

}  // namespace hpmm
