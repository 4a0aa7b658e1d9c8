#include "matrix/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace hpmm {
namespace {

/// rows * cols, refusing shapes whose element count wraps std::size_t or
/// exceeds what a std::vector<double> can hold.
std::size_t checked_size(std::size_t rows, std::size_t cols) {
  // Every block allocation passes here: build the message only on failure.
  if (cols != 0 && rows > std::vector<double>().max_size() / cols) {
    throw PreconditionError("Matrix: " + std::to_string(rows) + " x " +
                            std::to_string(cols) +
                            " elements exceed the addressable size");
  }
  return rows * cols;
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(checked_size(rows, cols), 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill_value)
    : rows_(rows), cols_(cols), data_(checked_size(rows, cols), fill_value) {}

double& Matrix::at(std::size_t r, std::size_t c) {
  require(r < rows_ && c < cols_, "Matrix::at: index out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  require(r < rows_ && c < cols_, "Matrix::at: index out of range");
  return (*this)(r, c);
}

void Matrix::fill(double value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_,
          "Matrix::operator+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_,
          "Matrix::operator-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix Matrix::slice(std::size_t r0, std::size_t c0, std::size_t h,
                     std::size_t w) const {
  require(r0 + h <= rows_ && c0 + w <= cols_, "Matrix::slice: out of range");
  Matrix out(h, w);
  for (std::size_t r = 0; r < h; ++r) {
    std::copy_n(row_ptr(r0 + r) + c0, w, out.row_ptr(r));
  }
  return out;
}

void Matrix::paste(const Matrix& block, std::size_t r0, std::size_t c0) {
  require(r0 + block.rows() <= rows_ && c0 + block.cols() <= cols_,
          "Matrix::paste: out of range");
  for (std::size_t r = 0; r < block.rows(); ++r) {
    std::copy_n(block.row_ptr(r), block.cols(), row_ptr(r0 + r) + c0);
  }
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

double frobenius_norm(const Matrix& m) noexcept {
  double sum = 0.0;
  for (double v : m.data()) sum += v * v;
  return std::sqrt(sum);
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(),
          "max_abs_diff: shape mismatch");
  double worst = 0.0;
  auto da = a.data();
  auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    worst = std::max(worst, std::fabs(da[i] - db[i]));
  }
  return worst;
}

bool approx_equal(const Matrix& a, const Matrix& b, double tol) {
  return max_abs_diff(a, b) <= tol;
}

}  // namespace hpmm
