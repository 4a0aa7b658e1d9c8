#pragma once

#include "algorithms/parallel_matmul.hpp"

namespace hpmm {

/// Fox's algorithm (Section 4.3): sqrt(p) iterations; in iteration t the
/// processor holding block A(i, (i+t) mod sqrt(p)) broadcasts it along mesh
/// row i, every processor multiplies the received A block with its resident
/// B block, and B rolls one step north.
///
/// Two broadcast schemes are provided:
///  * kBinomialHypercube — one-to-all broadcast inside each row subcube (the
///    straightforward hypercube scheme);
///  * kPipelinedRing — Eq. 4's mechanism: the root splits its block into
///    packets that stream around the mesh row, so the t_w cost loses its
///    sqrt(p) broadcast factor at the price of t_s per packet per hop.
/// Either way the algorithm is dominated by Cannon's (Section 4.3), which is
/// why the paper drops it from the comparison sections.
class FoxAlgorithm final : public ParallelMatmul {
 public:
  enum class Variant { kBinomialHypercube, kPipelinedRing };

  explicit FoxAlgorithm(Variant variant = Variant::kBinomialHypercube)
      : variant_(variant) {}

  std::string name() const override {
    return variant_ == Variant::kBinomialHypercube ? "fox" : "fox-pipe";
  }
  std::string applicability() const override {
    return variant_ == Variant::kBinomialHypercube ? "as cannon, sqrt(p) = 2^k"
                                                   : "as cannon";
  }
  void check_applicable(std::size_t n, std::size_t p) const override;
  MatmulResult run(const Matrix& a, const Matrix& b, std::size_t p,
                   const MachineParams& params) const override;

  Variant variant() const noexcept { return variant_; }

 private:
  /// One iteration's pipelined row broadcasts (all rows concurrently).
  /// a_col[i] is the broadcasting column of row i; fills `received`.
  void pipelined_row_broadcast(class SimMachine& machine,
                               const class Torus2D& torus, std::size_t sp,
                               const std::vector<Matrix>& a_blk,
                               std::size_t iteration,
                               std::vector<Matrix>& received) const;

  Variant variant_;
};

}  // namespace hpmm
