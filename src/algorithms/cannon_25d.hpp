#pragma once

#include "algorithms/parallel_matmul.hpp"

namespace hpmm {

/// 2.5D memory-replicated Cannon formulation (Ballard-Demmel-Holtz-Lipshitz;
/// Solomonik & Demmel): p = c * q^2 processors arranged as a q x q x c grid
/// with q = sqrt(p/c). Layer 0 holds the operands in Cannon's q x q block
/// layout; a binomial broadcast along each replication fiber gives every
/// layer a copy, each layer runs q/c of Cannon's q multiply-shift steps from
/// a staggered initial alignment, and a binomial reduction sums the partial
/// C contributions back onto layer 0.
///
/// The replication factor c interpolates between 2D Cannon (c = 1, this
/// algorithm degenerates to exactly Eq. 3) and a 3D formulation
/// (c = p^{1/3}): per-layer communication volume drops from 2 t_w n^2/sqrt(p)
/// to 2 t_w n^2/sqrt(pc) at the price of Theta(c n^2/p) storage per
/// processor and 3 log2(c) extra broadcast/reduce rounds.
///
/// Model: T_p = n^3/p + (3 log2 c + 2 sqrt(p/c^3)) (t_s + t_w c n^2/p),
/// exact for the simulation under one-port cut-through routing (see
/// Cannon25DModel and DESIGN.md).
class Cannon25DAlgorithm final : public ParallelMatmul {
 public:
  /// `c` is the memory-replication factor (power of two; c = 1 degenerates
  /// to plain Cannon on one layer).
  explicit Cannon25DAlgorithm(std::size_t c = 2) : c_(c) {}

  std::string name() const override { return "cannon25d"; }
  std::string applicability() const override {
    return "p = c q^2 <= c n^2, c = 2^k <= p^(1/3), c | q, q | n (--c)";
  }
  void check_applicable(std::size_t n, std::size_t p) const override;
  MatmulResult run(const Matrix& a, const Matrix& b, std::size_t p,
                   const MachineParams& params) const override;

  std::size_t replication() const noexcept { return c_; }

 private:
  std::size_t c_;
};

}  // namespace hpmm
