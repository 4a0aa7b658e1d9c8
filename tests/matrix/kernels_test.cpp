#include "matrix/kernels.hpp"

#include <gtest/gtest.h>

#include "matrix/generate.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace hpmm {
namespace {

TEST(Kernels, SmallHandComputedProduct) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  const Matrix c = multiply(a, b, Kernel::kNaiveIjk);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(Kernels, IdentityIsNeutral) {
  Rng rng(1);
  const Matrix a = random_matrix(16, 16, rng);
  const Matrix i = identity_matrix(16);
  EXPECT_TRUE(approx_equal(multiply(a, i), a, 1e-14));
  EXPECT_TRUE(approx_equal(multiply(i, a), a, 1e-14));
}

TEST(Kernels, MultiplyAddAccumulates) {
  Matrix a(2, 2, 1.0), b(2, 2, 1.0);
  Matrix c(2, 2, 10.0);
  multiply_add(a, b, c);
  EXPECT_EQ(c(0, 0), 12.0);  // 10 + 2
}

TEST(Kernels, ShapeValidation) {
  Matrix a(2, 3), b(2, 3), c(2, 3);
  EXPECT_THROW(multiply_add(a, b, c), PreconditionError);  // inner mismatch
  Matrix b2(3, 4), c_bad(2, 3);
  EXPECT_THROW(multiply_add(a, b2, c_bad), PreconditionError);  // C shape
}

TEST(Kernels, RectangularShapes) {
  Rng rng(2);
  const Matrix a = random_matrix(3, 5, rng);
  const Matrix b = random_matrix(5, 2, rng);
  const Matrix c = multiply(a, b);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 2u);
  // Check one entry against the direct dot product.
  double expect = 0.0;
  for (std::size_t k = 0; k < 5; ++k) expect += a(1, k) * b(k, 1);
  EXPECT_NEAR(c(1, 1), expect, 1e-14);
}

TEST(Kernels, FlopCount) {
  EXPECT_EQ(matmul_flops(2, 3, 4), 24u);
  EXPECT_EQ(matmul_flops(64, 64, 64), 262144u);
}

TEST(Kernels, ToStringNames) {
  EXPECT_EQ(to_string(Kernel::kNaiveIjk), "naive-ijk");
  EXPECT_EQ(to_string(Kernel::kCacheIkj), "cache-ikj");
  EXPECT_EQ(to_string(Kernel::kBlocked), "blocked");
  EXPECT_EQ(to_string(Kernel::kTransposedB), "transposed-b");
  EXPECT_EQ(to_string(Kernel::kPacked), "packed");
}

TEST(Kernels, FromStringRoundTrips) {
  for (Kernel k : kAllKernels) EXPECT_EQ(kernel_from_string(to_string(k)), k);
  EXPECT_THROW(kernel_from_string("bogus"), PreconditionError);
  EXPECT_THROW(kernel_from_string(""), PreconditionError);
}

/// All kernels must agree with the naive reference on random inputs,
/// including sizes that straddle the blocked kernel's tile boundary.
class KernelAgreement
    : public ::testing::TestWithParam<std::tuple<Kernel, std::size_t>> {};

TEST_P(KernelAgreement, MatchesNaive) {
  const auto [kernel, n] = GetParam();
  Rng rng(17 + n);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  const Matrix expect = multiply(a, b, Kernel::kNaiveIjk);
  const Matrix got = multiply(a, b, kernel);
  EXPECT_TRUE(approx_equal(expect, got, 1e-11 * static_cast<double>(n)))
      << to_string(kernel) << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAndSizes, KernelAgreement,
    ::testing::Combine(::testing::Values(Kernel::kCacheIkj, Kernel::kBlocked,
                                         Kernel::kTransposedB,
                                         Kernel::kPacked),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{31}, std::size_t{32},
                                         std::size_t{33}, std::size_t{64},
                                         std::size_t{100})));

// The packed kernel accumulates every C element in plain increasing-k order
// regardless of tile sizes or threading, so results are bit-identical — not
// merely close — across tunings and thread counts.
TEST(PackedKernel, BitIdenticalAcrossTunings) {
  const PackedTuning saved = packed_tuning();
  Rng rng(23);
  const Matrix a = random_matrix(97, 83, rng);
  const Matrix b = random_matrix(83, 61, rng);
  set_packed_tuning({64, 32});
  const Matrix small_tiles = multiply(a, b, Kernel::kPacked);
  set_packed_tuning({256, 128});
  const Matrix large_tiles = multiply(a, b, Kernel::kPacked);
  set_packed_tuning(saved);
  ASSERT_EQ(small_tiles.rows(), large_tiles.rows());
  for (std::size_t i = 0; i < small_tiles.rows(); ++i) {
    for (std::size_t j = 0; j < small_tiles.cols(); ++j) {
      ASSERT_EQ(small_tiles(i, j), large_tiles(i, j)) << i << "," << j;
    }
  }
}

TEST(PackedKernel, BitIdenticalSerialVsThreaded) {
  const PackedTuning saved = packed_tuning();
  set_packed_tuning({32, 8});  // many row strips even at this size
  Rng rng(29);
  const Matrix a = random_matrix(120, 70, rng);
  const Matrix b = random_matrix(70, 90, rng);
  const Matrix serial = multiply(a, b, Kernel::kPacked);
  ThreadPool pool(4);
  const Matrix threaded = multiply(a, b, Kernel::kPacked, &pool);
  set_packed_tuning(saved);
  for (std::size_t i = 0; i < serial.rows(); ++i) {
    for (std::size_t j = 0; j < serial.cols(); ++j) {
      ASSERT_EQ(serial(i, j), threaded(i, j)) << i << "," << j;
    }
  }
}

TEST(PackedKernel, RectangularAndOddShapes) {
  Rng rng(31);
  const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
      {1, 1, 1}, {3, 9, 5}, {4, 8, 8}, {5, 4, 9}, {33, 17, 41}};
  for (const auto& [m, k, n] : shapes) {
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    const Matrix expect = multiply(a, b, Kernel::kNaiveIjk);
    const Matrix got = multiply(a, b, Kernel::kPacked);
    EXPECT_TRUE(approx_equal(expect, got, 1e-12 * static_cast<double>(k + 1)))
        << m << "x" << k << "x" << n;
  }
}

TEST(PackedKernel, AutotuneReturnsCandidateTiles) {
  const PackedTuning t = autotune_packed(64);
  EXPECT_GE(t.kc, 1u);
  EXPECT_GE(t.mc, 1u);
}

TEST(PackedKernel, SetTuningValidates) {
  EXPECT_THROW(set_packed_tuning({0, 64}), PreconditionError);
  EXPECT_THROW(set_packed_tuning({64, 0}), PreconditionError);
}

TEST(PackedKernel, WallProfileCountsOnlyWhenEnabled) {
  Rng rng(31);
  const Matrix a = random_matrix(32, 32, rng);
  const Matrix b = random_matrix(32, 32, rng);
  reset_kernel_wall_profile();
  multiply(a, b, Kernel::kPacked);  // profiling off: nothing recorded
  EXPECT_EQ(kernel_wall_profile().calls, 0u);
  enable_kernel_wall_profile(true);
  multiply(a, b, Kernel::kPacked);
  multiply(a, b, Kernel::kPacked);
  enable_kernel_wall_profile(false);
  const KernelWallProfile w = kernel_wall_profile();
  EXPECT_EQ(w.calls, 2u);
  EXPECT_GE(w.seconds, 0.0);
  multiply(a, b, Kernel::kPacked);  // off again: count frozen
  EXPECT_EQ(kernel_wall_profile().calls, 2u);
  reset_kernel_wall_profile();
  EXPECT_EQ(kernel_wall_profile().calls, 0u);
}

}  // namespace
}  // namespace hpmm
