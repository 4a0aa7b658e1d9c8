#pragma once

#include "algorithms/parallel_matmul.hpp"

namespace hpmm {

/// Cannon's algorithm (Section 4.2): memory-efficient block algorithm on a
/// sqrt(p) x sqrt(p) wrap-around mesh. After skewing A's blocks left by their
/// row index and B's blocks up by their column index, the mesh performs
/// sqrt(p) multiply-shift steps (A rolls west, B rolls north).
///
/// Paper model (Eq. 3): T_p = n^3/p + 2 t_s sqrt(p) + 2 t_w n^2/sqrt(p).
/// Nearest-neighbour only, so mesh and hypercube performance coincide
/// (Section 4.4's opening observation) — demonstrable here by running the
/// same algorithm under the Gray-code embedding into a hypercube
/// (Mapping::kHypercubeGray), where every mesh link maps to one cube link
/// (dilation 1) and T_p is bit-identical even under store-and-forward.
class CannonAlgorithm final : public ParallelMatmul {
 public:
  enum class Mapping {
    kMesh,          ///< run on the wrap-around mesh itself
    kHypercubeGray  ///< embed the mesh in a hypercube via Gray codes
  };

  explicit CannonAlgorithm(Mapping mapping = Mapping::kMesh)
      : mapping_(mapping) {}

  std::string name() const override {
    return mapping_ == Mapping::kMesh ? "cannon" : "cannon-gray";
  }
  std::string applicability() const override {
    return mapping_ == Mapping::kMesh ? "p square <= n^2, sqrt(p) | n"
                                      : "as cannon, sqrt(p) = 2^k";
  }
  void check_applicable(std::size_t n, std::size_t p) const override;
  MatmulResult run(const Matrix& a, const Matrix& b, std::size_t p,
                   const MachineParams& params) const override;

  Mapping mapping() const noexcept { return mapping_; }

 private:
  Mapping mapping_;
};

}  // namespace hpmm
