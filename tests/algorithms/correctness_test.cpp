#include <gtest/gtest.h>

#include "algorithms/berntsen.hpp"
#include "algorithms/cannon.hpp"
#include "algorithms/dns.hpp"
#include "algorithms/fox.hpp"
#include "algorithms/gk.hpp"
#include "algorithms/parallel_matmul.hpp"
#include "algorithms/simple_2d.hpp"
#include "matrix/generate.hpp"
#include "matrix/kernels.hpp"
#include "core/registry.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

MachineParams test_params() {
  MachineParams m;
  m.t_s = 25.0;
  m.t_w = 1.5;
  return m;
}

/// Run one algorithm over random operands and compare against the serial
/// product. Exercised across every formulation and several (n, p) shapes.
void expect_correct(const ParallelMatmul& alg, std::size_t n, std::size_t p,
                    std::uint64_t seed = 99) {
  Rng rng(seed);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  const Matrix expect = multiply(a, b);
  const MatmulResult got = alg.run(a, b, p, test_params());
  EXPECT_LE(max_abs_diff(got.c, expect), 1e-12 * static_cast<double>(n))
      << alg.name() << " n=" << n << " p=" << p;
  // Sanity on the report.
  EXPECT_EQ(got.report.p, p);
  EXPECT_EQ(got.report.n, n);
  EXPECT_GT(got.report.t_parallel, 0.0);
  EXPECT_DOUBLE_EQ(got.report.w_useful,
                   static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n));
}

struct Case {
  std::size_t n, p;
};

class SimpleCorrect : public ::testing::TestWithParam<Case> {};
TEST_P(SimpleCorrect, MatchesSerial) {
  expect_correct(SimpleAlgorithm(), GetParam().n, GetParam().p);
}
INSTANTIATE_TEST_SUITE_P(Shapes, SimpleCorrect,
                         ::testing::Values(Case{8, 1}, Case{8, 4}, Case{8, 16},
                                           Case{16, 16}, Case{16, 64},
                                           Case{12, 4}));

class SimpleRingCorrect : public ::testing::TestWithParam<Case> {};
TEST_P(SimpleRingCorrect, MatchesSerial) {
  expect_correct(SimpleAlgorithm(SimpleAlgorithm::Variant::kOnePortRing),
                 GetParam().n, GetParam().p);
}
INSTANTIATE_TEST_SUITE_P(Shapes, SimpleRingCorrect,
                         ::testing::Values(Case{12, 9}, Case{8, 4}, Case{15, 25},
                                           Case{6, 36}));

class SimpleAllPortCorrect : public ::testing::TestWithParam<Case> {};
TEST_P(SimpleAllPortCorrect, MatchesSerial) {
  expect_correct(SimpleAlgorithm(SimpleAlgorithm::Variant::kAllPort),
                 GetParam().n, GetParam().p);
}
INSTANTIATE_TEST_SUITE_P(Shapes, SimpleAllPortCorrect,
                         ::testing::Values(Case{8, 4}, Case{8, 16}, Case{16, 16}));

TEST(SimpleAllPortCorrectEdge, SingleProcessorIsSerial) {
  // Regression: p = 1 has log p = 0 channels — the modeled phase must charge
  // nothing instead of dividing by zero.
  Rng rng(71);
  const Matrix a = random_matrix(8, 8, rng);
  const Matrix b = random_matrix(8, 8, rng);
  const auto res = SimpleAlgorithm(SimpleAlgorithm::Variant::kAllPort)
                       .run(a, b, 1, test_params());
  EXPECT_DOUBLE_EQ(res.report.t_parallel, 512.0);
  EXPECT_DOUBLE_EQ(res.report.efficiency(), 1.0);
  EXPECT_LE(max_abs_diff(res.c, multiply(a, b)), 1e-12);
}

class CannonCorrect : public ::testing::TestWithParam<Case> {};
TEST_P(CannonCorrect, MatchesSerial) {
  expect_correct(CannonAlgorithm(), GetParam().n, GetParam().p);
}
INSTANTIATE_TEST_SUITE_P(Shapes, CannonCorrect,
                         ::testing::Values(Case{8, 1}, Case{8, 4}, Case{12, 9},
                                           Case{8, 16}, Case{10, 25},
                                           Case{16, 64}, Case{22, 121}));

class FoxCorrect : public ::testing::TestWithParam<Case> {};
TEST_P(FoxCorrect, MatchesSerial) {
  expect_correct(FoxAlgorithm(), GetParam().n, GetParam().p);
}
INSTANTIATE_TEST_SUITE_P(Shapes, FoxCorrect,
                         ::testing::Values(Case{8, 1}, Case{8, 4}, Case{8, 16},
                                           Case{16, 16}, Case{16, 64}));

class BerntsenCorrect : public ::testing::TestWithParam<Case> {};
TEST_P(BerntsenCorrect, MatchesSerial) {
  expect_correct(BerntsenAlgorithm(), GetParam().n, GetParam().p);
}
INSTANTIATE_TEST_SUITE_P(Shapes, BerntsenCorrect,
                         ::testing::Values(Case{8, 1}, Case{8, 8}, Case{12, 8},
                                           Case{16, 8}, Case{16, 64},
                                           Case{32, 64}));

class DnsCorrect : public ::testing::TestWithParam<Case> {};
TEST_P(DnsCorrect, MatchesSerial) {
  expect_correct(DnsAlgorithm(), GetParam().n, GetParam().p);
}
INSTANTIATE_TEST_SUITE_P(Shapes, DnsCorrect,
                         ::testing::Values(Case{4, 16}, Case{4, 32}, Case{4, 64},
                                           Case{8, 64}, Case{8, 128},
                                           Case{8, 256}));

class GkCorrect : public ::testing::TestWithParam<Case> {};
TEST_P(GkCorrect, MatchesSerial) {
  expect_correct(GkAlgorithm(), GetParam().n, GetParam().p);
}
INSTANTIATE_TEST_SUITE_P(Shapes, GkCorrect,
                         ::testing::Values(Case{8, 1}, Case{8, 8}, Case{12, 8},
                                           Case{8, 64}, Case{16, 64},
                                           Case{8, 512}, Case{16, 512}));

class GkJhCorrect : public ::testing::TestWithParam<Case> {};
TEST_P(GkJhCorrect, MatchesSerial) {
  expect_correct(GkAlgorithm(GkAlgorithm::Broadcast::kJohnssonHo), GetParam().n,
                 GetParam().p);
}
INSTANTIATE_TEST_SUITE_P(Shapes, GkJhCorrect,
                         ::testing::Values(Case{8, 8}, Case{16, 64},
                                           Case{8, 512}));

class GkFcCorrect : public ::testing::TestWithParam<Case> {};
TEST_P(GkFcCorrect, MatchesSerial) {
  expect_correct(GkAlgorithm(GkAlgorithm::Broadcast::kBinomial,
                             GkAlgorithm::Interconnect::kFullyConnected),
                 GetParam().n, GetParam().p);
}
INSTANTIATE_TEST_SUITE_P(Shapes, GkFcCorrect,
                         ::testing::Values(Case{8, 8}, Case{16, 64},
                                           Case{8, 512}));

class GkAllPortCorrect : public ::testing::TestWithParam<Case> {};
TEST_P(GkAllPortCorrect, MatchesSerial) {
  expect_correct(GkAlgorithm(GkAlgorithm::Broadcast::kAllPort), GetParam().n,
                 GetParam().p);
}
INSTANTIATE_TEST_SUITE_P(Shapes, GkAllPortCorrect,
                         ::testing::Values(Case{8, 8}, Case{16, 64}));

TEST(Correctness, IdentityOperandAcrossAlgorithms) {
  // A * I = A for every formulation, a structured (non-random) probe that
  // catches block-placement mistakes random inputs could mask.
  const std::size_t n = 8;
  const Matrix a = index_matrix(n, n);
  const Matrix id = identity_matrix(n);
  for (const auto& name : default_registry().selectable_names()) {
    const ParallelMatmul& alg = default_registry().implementation(name);
    std::size_t p = 0;
    for (std::size_t cand : {64u, 16u, 8u, 4u}) {
      if (alg.applicable(n, cand)) {
        p = cand;
        break;
      }
    }
    ASSERT_NE(p, 0u) << name;
    const MatmulResult got = alg.run(a, id, p, test_params());
    EXPECT_LE(max_abs_diff(got.c, a), 1e-12) << name;
  }
}

TEST(Correctness, DifferentSeedsStillCorrect) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    expect_correct(GkAlgorithm(), 8, 64, seed);
    expect_correct(CannonAlgorithm(), 12, 9, seed);
  }
}

TEST(Correctness, NoPendingMessagesAfterRuns) {
  // The inbox-drained invariant is internal to each algorithm (checked via
  // its own SimMachine), but re-running twice ensures no hidden global state.
  Rng rng(5);
  const Matrix a = random_matrix(8, 8, rng);
  const Matrix b = random_matrix(8, 8, rng);
  GkAlgorithm gk;
  const auto r1 = gk.run(a, b, 64, test_params());
  const auto r2 = gk.run(a, b, 64, test_params());
  EXPECT_EQ(r1.c, r2.c);
  EXPECT_DOUBLE_EQ(r1.report.t_parallel, r2.report.t_parallel);
}

TEST(Correctness, OperandValidation) {
  CannonAlgorithm cannon;
  Matrix square(4, 4), rect(4, 5);
  EXPECT_THROW(cannon.run(square, rect, 4, test_params()), PreconditionError);
  EXPECT_THROW(cannon.run(rect, rect, 4, test_params()), PreconditionError);
  Matrix other(5, 5);
  EXPECT_THROW(cannon.run(square, other, 4, test_params()), PreconditionError);
}

}  // namespace
}  // namespace hpmm
