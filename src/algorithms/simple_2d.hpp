#pragma once

#include "algorithms/parallel_matmul.hpp"

namespace hpmm {

/// The "simple algorithm" of Section 4.1: blocks on a sqrt(p) x sqrt(p)
/// logical mesh embedded in a hypercube; an all-to-all broadcast of A blocks
/// within rows and of B blocks within columns, followed by sqrt(p) local
/// block multiplies per processor.
///
/// Memory-inefficient: each processor stores O(n^2/sqrt(p)) words.
///
/// Paper model (Eq. 2): T_p = n^3/p + 2 t_s log p + 2 t_w n^2/sqrt(p).
///
/// Variants:
///  * kOnePortRing            — emergent ring all-to-all within rows/columns,
///                              (t_s + t_w m)(sqrt(p)-1) per phase
///  * kOnePortRecursiveDoubling — emergent hypercube allgather,
///                              t_s log sqrt(p) + t_w m (sqrt(p)-1) per phase
///                              (the scheme behind Eq. 2's constants)
///  * kAllPort                — modeled per Section 7.1 / Eq. 16; requires
///                              n >= (1/2) sqrt(p) log p for full channel use
class SimpleAlgorithm final : public ParallelMatmul {
 public:
  enum class Variant { kOnePortRing, kOnePortRecursiveDoubling, kAllPort };

  explicit SimpleAlgorithm(Variant variant = Variant::kOnePortRecursiveDoubling)
      : variant_(variant) {}

  std::string name() const override;
  std::string applicability() const override;
  void check_applicable(std::size_t n, std::size_t p) const override;
  MatmulResult run(const Matrix& a, const Matrix& b, std::size_t p,
                   const MachineParams& params) const override;

  Variant variant() const noexcept { return variant_; }

 private:
  /// Time charged per all-to-all phase (rows or columns) under the all-port
  /// model — half of Eq. 16's communication cost, since A and B move
  /// simultaneously.
  static double t_allport_phase(const MachineParams& params, double block_words,
                                std::size_t sp, double log_p);

  Variant variant_;
};

}  // namespace hpmm
