#pragma once

#include <memory>
#include <string>
#include <vector>

#include "machine/params.hpp"
#include "matrix/matrix.hpp"
#include "sim/report.hpp"
#include "sim/trace.hpp"

namespace hpmm {

/// Result of one simulated parallel multiplication: the numerical product
/// (assembled from the distributed blocks, so it can be checked against the
/// serial algorithm) plus the timing report.
struct MatmulResult {
  Matrix c;
  RunReport report;
  /// Per-processor event timeline; populated when MachineParams::trace is
  /// set on the run's machine parameters, empty otherwise.
  Trace trace;
};

/// Common interface of the parallel matrix-multiplication formulations of
/// Sections 4.1-4.6. Implementations construct their own simulated machine
/// (topology per the formulation), distribute the operands, run the
/// algorithm with per-message/per-flop cost accounting, and assemble the
/// product.
///
/// Conventions shared by all implementations:
///  * The operands are taken as already distributed in the formulation's
///    initial layout; scattering/gathering the global matrices is *not*
///    charged, exactly as in the paper's T_p expressions.
///  * One multiply-add = 1 time unit (Section 2); communication follows
///    MachineParams.
class ParallelMatmul {
 public:
  virtual ~ParallelMatmul() = default;

  /// Short identifier: "cannon", "gk", ...
  virtual std::string name() const = 0;

  /// Throws PreconditionError with an explanatory message when the
  /// formulation cannot multiply n x n matrices on p processors (range of
  /// applicability from Table 1 plus block-divisibility requirements).
  virtual void check_applicable(std::size_t n, std::size_t p) const = 0;

  /// check_applicable's range in print (`hpmm list`): Table 1's range of
  /// applicability plus the divisibility requirements.
  virtual std::string applicability() const = 0;

  /// Non-throwing wrapper around check_applicable.
  bool applicable(std::size_t n, std::size_t p) const;

  /// Multiply a * b (both n x n) on p simulated processors.
  virtual MatmulResult run(const Matrix& a, const Matrix& b, std::size_t p,
                           const MachineParams& params) const = 0;

 protected:
  /// Shared argument validation: square, equal shapes, non-empty.
  static std::size_t validated_order(const Matrix& a, const Matrix& b);
};

}  // namespace hpmm
