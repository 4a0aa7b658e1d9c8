#pragma once

#include "algorithms/parallel_matmul.hpp"

namespace hpmm {

/// The Dekel-Nassimi-Sahni algorithm (Section 4.5) for n^2 <= p <= n^3
/// processors, p = n^2 * r with 1 <= r <= n.
///
/// The machine is viewed as r x r x r *superprocessors* of (n/r)^2 hypercube
/// processors each, holding one matrix element apiece. Superprocessor
/// (i, j, k) computes the block product A(j,i) * B(i,k) with one-element-per-
/// processor Cannon on its internal (n/r) x (n/r) mesh; the r partial block
/// products along the i axis are then summed in a binomial tree.
/// With r = n this is the classic one-element-per-processor DNS algorithm
/// (p = n^3, O(log n) time).
///
/// Paper model (Eq. 6): T_p = n^3/p + (t_s + t_w)(5 log(p/n^2) + 2 n^3/p).
/// Note the 2 (t_s + t_w) n^3/p term: it caps the achievable efficiency at
/// 1 / (1 + 2 t_s + 2 t_w) no matter how large the problem (Section 5.3).
class DnsAlgorithm final : public ParallelMatmul {
 public:
  std::string name() const override { return "dns"; }
  std::string applicability() const override {
    return "n^2 <= p = n^2 2^k <= n^3, n = 2^j";
  }
  void check_applicable(std::size_t n, std::size_t p) const override;
  MatmulResult run(const Matrix& a, const Matrix& b, std::size_t p,
                   const MachineParams& params) const override;
};

}  // namespace hpmm
