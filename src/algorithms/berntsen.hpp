#pragma once

#include "algorithms/parallel_matmul.hpp"

namespace hpmm {

/// Berntsen's algorithm (Section 4.4): p = 2^{3q} processors with
/// p <= n^{3/2}. A is split into 2^q column slabs and B into 2^q row slabs;
/// the hypercube is split into 2^q subcubes of 2^{2q} processors, subcube s
/// computing the outer-product contribution A_s * B_s with Cannon's
/// algorithm on its internal 2^q x 2^q mesh. The 2^q partial products are
/// then summed across subcubes with a recursive-halving reduce-scatter,
/// leaving C distributed over all p processors.
///
/// Paper model (Eq. 5):
///   T_p = n^3/p + 2 t_s p^{1/3} + (1/3) t_s log p + 3 t_w n^2 / p^{2/3}.
///
/// The smallest communication overhead of the four compared algorithms, but
/// concurrency limited to p <= n^{3/2}, giving the worst isoefficiency,
/// Θ(p^2) (Section 5.2).
class BerntsenAlgorithm final : public ParallelMatmul {
 public:
  std::string name() const override { return "berntsen"; }
  std::string applicability() const override {
    return "p = 2^(3q) <= n^(3/2), p^(2/3) | n";
  }
  void check_applicable(std::size_t n, std::size_t p) const override;
  MatmulResult run(const Matrix& a, const Matrix& b, std::size_t p,
                   const MachineParams& params) const override;
};

}  // namespace hpmm
