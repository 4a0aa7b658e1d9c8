#include "algorithms/parallel_matmul.hpp"

#include "util/error.hpp"

namespace hpmm {

bool ParallelMatmul::applicable(std::size_t n, std::size_t p) const {
  try {
    check_applicable(n, p);
    return true;
  } catch (const PreconditionError&) {
    return false;
  }
}

std::size_t ParallelMatmul::validated_order(const Matrix& a, const Matrix& b) {
  require(a.square() && b.square(), "ParallelMatmul: operands must be square");
  require(a.rows() == b.rows(), "ParallelMatmul: operands must share an order");
  require(!a.empty(), "ParallelMatmul: operands must be non-empty");
  return a.rows();
}

}  // namespace hpmm
