#include "matrix/matrix.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/error.hpp"

namespace hpmm {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(Matrix, ZeroInitialised) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(Matrix, ShapesWhoseSizeWrapsThrow) {
  // 2^32 x 2^32 wraps rows * cols to 0 in 64 bits; it must throw, not
  // allocate nothing and then index past the end.
  const std::size_t big = std::size_t{1} << 32;
  EXPECT_THROW(Matrix(big, big), PreconditionError);
  EXPECT_THROW(Matrix(big, big, 1.0), PreconditionError);
  EXPECT_THROW(Matrix(SIZE_MAX, 2), PreconditionError);
  EXPECT_NO_THROW(Matrix(0, SIZE_MAX));
}

TEST(Matrix, FillConstructor) {
  Matrix m(2, 2, 7.5);
  EXPECT_EQ(m(1, 1), 7.5);
}

TEST(Matrix, ElementAccessRoundTrip) {
  Matrix m(2, 3);
  m(1, 2) = 42.0;
  EXPECT_EQ(m(1, 2), 42.0);
  EXPECT_EQ(m.at(1, 2), 42.0);
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), PreconditionError);
  EXPECT_THROW(m.at(0, 2), PreconditionError);
}

TEST(Matrix, RowPtrIsRowMajor) {
  Matrix m(2, 3);
  m(1, 0) = 5.0;
  EXPECT_EQ(m.row_ptr(1)[0], 5.0);
  EXPECT_EQ(m.data()[3], 5.0);
}

TEST(Matrix, PlusEquals) {
  Matrix a(2, 2, 1.0), b(2, 2, 2.0);
  a += b;
  EXPECT_EQ(a(0, 0), 3.0);
  EXPECT_EQ(a(1, 1), 3.0);
}

TEST(Matrix, MinusEquals) {
  Matrix a(2, 2, 5.0), b(2, 2, 2.0);
  a -= b;
  EXPECT_EQ(a(1, 0), 3.0);
}

TEST(Matrix, PlusEqualsShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a += b, PreconditionError);
}

TEST(Matrix, SliceExtractsRectangle) {
  Matrix m(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) m(r, c) = static_cast<double>(10 * r + c);
  }
  const Matrix s = m.slice(1, 2, 2, 2);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_EQ(s(0, 0), 12.0);
  EXPECT_EQ(s(1, 1), 23.0);
}

TEST(Matrix, SliceOutOfRangeThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m.slice(1, 1, 2, 1), PreconditionError);
}

TEST(Matrix, PasteRoundTripsWithSlice) {
  Matrix m(4, 4);
  Matrix block(2, 2, 9.0);
  m.paste(block, 2, 1);
  EXPECT_EQ(m.slice(2, 1, 2, 2), block);
  EXPECT_EQ(m(1, 1), 0.0);  // untouched
}

TEST(Matrix, PasteOutOfRangeThrows) {
  Matrix m(2, 2);
  Matrix block(2, 2);
  EXPECT_THROW(m.paste(block, 1, 0), PreconditionError);
}

TEST(Matrix, Transposed) {
  Matrix m(2, 3);
  m(0, 1) = 4.0;
  m(1, 2) = 5.0;
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(1, 0), 4.0);
  EXPECT_EQ(t(2, 1), 5.0);
}

TEST(Matrix, EqualityIsDeep) {
  Matrix a(2, 2, 1.0), b(2, 2, 1.0);
  EXPECT_EQ(a, b);
  b(0, 0) = 2.0;
  EXPECT_NE(a, b);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m(1, 2);
  m(0, 0) = 3.0;
  m(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(frobenius_norm(m), 5.0);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a(2, 2, 1.0), b(2, 2, 1.0);
  b(1, 0) = 1.5;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
  EXPECT_TRUE(approx_equal(a, b, 0.5));
  EXPECT_FALSE(approx_equal(a, b, 0.4));
}

TEST(Matrix, MaxAbsDiffShapeMismatchThrows) {
  Matrix a(2, 2), b(3, 2);
  EXPECT_THROW(max_abs_diff(a, b), PreconditionError);
}

}  // namespace
}  // namespace hpmm
