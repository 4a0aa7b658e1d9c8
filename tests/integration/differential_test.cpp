// Property-based differential sweep: every registered formulation, plus
// cannon25d across its replication factors, is run over seeded random
// (n, p, c, t_s, t_w) tuples and compared against the serial reference.
//
// The operands are integer-valued, so every partial product and partial sum
// is exactly representable in a double and the result is independent of
// summation order: the parallel product must match the serial one
// *bit for bit*, not just within a norm tolerance. The same sweep checks
// the simulated T_p against the analytic models and pins the exact message
// accounting of the 2.5D formulation.
//
// This suite carries the ctest label "slow" (skip with: ctest -LE slow).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "algorithms/cannon.hpp"
#include "algorithms/cannon_25d.hpp"
#include "algorithms/parallel_matmul.hpp"
#include "core/registry.hpp"
#include "matrix/generate.hpp"
#include "matrix/kernels.hpp"
#include "util/rng.hpp"

namespace hpmm {
namespace {

/// Integer entries in [-8, 8): products are bounded by n * 64 < 2^53, so
/// every intermediate is exact and reassociation cannot change the result.
Matrix integer_matrix(std::size_t n, Rng& rng) {
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m(r, c) = std::floor(rng.uniform(-8.0, 8.0));
    }
  }
  return m;
}

::testing::AssertionResult bit_identical(const Matrix& got,
                                         const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << " vs "
           << want.rows() << "x" << want.cols();
  }
  for (std::size_t r = 0; r < got.rows(); ++r) {
    for (std::size_t c = 0; c < got.cols(); ++c) {
      if (got(r, c) != want(r, c)) {  // exact, not approximate
        return ::testing::AssertionFailure()
               << "entry (" << r << "," << c << "): " << got(r, c)
               << " != " << want(r, c);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

struct MachineDraw {
  MachineParams mp;
  std::uint64_t seed;
};

/// Seeded machine-parameter draws: integral t_s in [0, 250), t_w in [1, 5).
std::vector<MachineDraw> machine_draws(std::size_t count) {
  Rng meta(0x25D0C0FFEEULL);
  std::vector<MachineDraw> draws;
  for (std::size_t i = 0; i < count; ++i) {
    MachineDraw d;
    d.mp.t_s = std::floor(meta.uniform(0.0, 250.0));
    d.mp.t_w = 1.0 + std::floor(meta.uniform(0.0, 4.0));
    d.seed = meta.next_u64();
    draws.push_back(d);
  }
  return draws;
}

TEST(Differential, SweepAllFormulationsMatchSerialBitForBit) {
  const std::vector<std::size_t> n_choices = {8, 12, 16, 24, 32};
  const std::vector<std::size_t> p_choices = {1,  4,  8,  9,   16,  25,
                                              27, 32, 64, 128, 256, 512};
  const auto& reg = default_registry();
  std::size_t runs = 0;
  for (const MachineDraw& draw : machine_draws(3)) {
    Rng rng(draw.seed);
    for (std::size_t n : n_choices) {
      const Matrix a = integer_matrix(n, rng);
      const Matrix b = integer_matrix(n, rng);
      const Matrix serial = multiply(a, b);
      for (std::size_t p : p_choices) {
        for (const auto& name : reg.selectable_names()) {
          const ParallelMatmul& alg = reg.implementation(name);
          if (!alg.applicable(n, p)) continue;
          const MatmulResult res = alg.run(a, b, p, draw.mp);
          EXPECT_TRUE(bit_identical(res.c, serial))
              << name << " n=" << n << " p=" << p
              << " t_s=" << draw.mp.t_s << " t_w=" << draw.mp.t_w;
          ++runs;
        }
      }
    }
  }
  // The sweep must actually exercise a substantial grid; if applicability
  // filters everything out, the test is vacuous and should fail.
  EXPECT_GT(runs, 200u);
}

TEST(Differential, SweepCannon25DReplicationFactorsMatchSerialBitForBit) {
  // (p, c) pairs covering c = 1, 2, 4 against several layer-mesh sizes.
  struct Shape {
    std::size_t n, p, c;
  };
  const std::vector<Shape> shapes = {
      {8, 8, 2},   {16, 8, 2},   {16, 32, 2},  {32, 32, 2},
      {16, 64, 4}, {32, 64, 4},  {32, 256, 4}, {12, 9, 1},
      {16, 16, 1}, {32, 128, 2},
  };
  for (const MachineDraw& draw : machine_draws(3)) {
    Rng rng(draw.seed ^ 0x5EEDULL);
    for (const Shape& s : shapes) {
      const Cannon25DAlgorithm alg(s.c);
      ASSERT_TRUE(alg.applicable(s.n, s.p))
          << "n=" << s.n << " p=" << s.p << " c=" << s.c;
      const Matrix a = integer_matrix(s.n, rng);
      const Matrix b = integer_matrix(s.n, rng);
      const MatmulResult res = alg.run(a, b, s.p, draw.mp);
      EXPECT_TRUE(bit_identical(res.c, multiply(a, b)))
          << "n=" << s.n << " p=" << s.p << " c=" << s.c
          << " t_s=" << draw.mp.t_s << " t_w=" << draw.mp.t_w;
    }
  }
}

TEST(Differential, SimulatedTimeTracksModels) {
  // Every formulation's simulated T_p must stay within a constant factor of
  // its analytic model over the random machine draws; Cannon and cannon25d
  // are simulation-exact and held to a much tighter band.
  const auto& reg = default_registry();
  for (const MachineDraw& draw : machine_draws(4)) {
    Rng rng(draw.seed ^ 0x40DE1ULL);
    const std::size_t n = 16;
    const Matrix a = integer_matrix(n, rng);
    const Matrix b = integer_matrix(n, rng);
    for (const auto& name : reg.names()) {
      const auto& alg = reg.implementation(name);
      const auto model = reg.model(name, draw.mp);
      for (std::size_t p : {4, 16, 64, 256}) {
        const double pd = static_cast<double>(p);
        if (!alg.applicable(n, p) ||
            !model->applicable(static_cast<double>(n), pd)) {
          continue;
        }
        const MatmulResult res = alg.run(a, b, p, draw.mp);
        const double predicted = model->t_parallel(static_cast<double>(n), pd);
        const double ratio = res.report.t_parallel / predicted;
        EXPECT_GT(ratio, 0.1) << name << " p=" << p << " t_s=" << draw.mp.t_s;
        EXPECT_LT(ratio, 10.0) << name << " p=" << p << " t_s=" << draw.mp.t_s;
        if (name == "cannon" || name == "cannon25d") {
          EXPECT_NEAR(ratio, 1.0, 1e-9) << name << " p=" << p;
        }
      }
    }
  }
}

TEST(Differential, Cannon25DMessageAccountingIsExact) {
  // With ABFT off and no faults, the simulator's message/word counters must
  // equal the closed-form phase decomposition:
  //   replicate A + B : 2 q^2 (c-1) blocks    (binomial trees)
  //   alignment       : 2 c q (q-1) blocks    (one row/col per layer skips)
  //   multiply-shift  : 2 (s-1) c q^2 blocks  (s = q/c steps)
  //   reduce C        : q^2 (c-1) blocks
  struct Shape {
    std::size_t n, p, c;
  };
  const std::vector<Shape> shapes = {
      {16, 16, 1}, {16, 32, 2}, {32, 128, 2}, {32, 64, 4}, {32, 256, 4}};
  MachineParams mp;
  mp.t_s = 50.0;
  mp.t_w = 2.0;
  Rng rng(7);
  for (const Shape& s : shapes) {
    const std::size_t q = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(s.p / s.c))));
    const std::size_t steps = q / s.c;
    const std::size_t bw = (s.n / q) * (s.n / q);
    const Matrix a = integer_matrix(s.n, rng);
    const Matrix b = integer_matrix(s.n, rng);
    const MatmulResult res = Cannon25DAlgorithm(s.c).run(a, b, s.p, mp);
    const std::uint64_t blocks = 3 * q * q * (s.c - 1) +
                                 2 * s.c * q * (q - 1) +
                                 2 * (steps - 1) * s.c * q * q;
    EXPECT_EQ(res.report.total_messages, blocks)
        << "n=" << s.n << " p=" << s.p << " c=" << s.c;
    EXPECT_EQ(res.report.total_words, blocks * bw)
        << "n=" << s.n << " p=" << s.p << " c=" << s.c;
    // Memory claim: every processor registers exactly its three blocks,
    // Theta(c n^2 / p) words each.
    EXPECT_EQ(res.report.max_peak_words, 3 * bw);
  }
}

TEST(Differential, ReplicationReducesPerLayerTrafficVsCannon) {
  // The point of 2.5D: the per-layer Cannon traffic (alignment +
  // multiply-shift) drops from ~2 n^2/sqrt(p) to ~2 n^2/sqrt(p c) words per
  // processor. Compare measured counters at the same (n, p); the collective
  // (replicate/reduce) words are subtracted via the closed form verified
  // above.
  MachineParams mp;
  mp.t_s = 150.0;
  mp.t_w = 3.0;
  Rng rng(11);
  struct Shape {
    std::size_t n, p, c;
  };
  for (const Shape& s : {Shape{32, 256, 4}, Shape{64, 256, 4}}) {
    const std::size_t q = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(s.p / s.c))));
    const std::size_t bw = (s.n / q) * (s.n / q);
    const Matrix a = integer_matrix(s.n, rng);
    const Matrix b = integer_matrix(s.n, rng);
    const auto r25 = Cannon25DAlgorithm(s.c).run(a, b, s.p, mp);
    const auto r2d = CannonAlgorithm().run(a, b, s.p, mp);
    const std::uint64_t collective_words = 3 * q * q * (s.c - 1) * bw;
    ASSERT_GE(r25.report.total_words, collective_words);
    const double layer_pp =
        static_cast<double>(r25.report.total_words - collective_words) /
        static_cast<double>(s.p);
    const double cannon_pp = static_cast<double>(r2d.report.total_words) /
                             static_cast<double>(s.p);
    EXPECT_LT(layer_pp, cannon_pp) << "n=" << s.n << " p=" << s.p;
    // And the replicas actually cost memory: c times Cannon's footprint.
    EXPECT_EQ(r25.report.max_peak_words,
              s.c * r2d.report.max_peak_words);
  }
}

TEST(Differential, Cannon25DBitIdenticalAcrossKernelsAndThreads) {
  // ExecPolicy is wall-clock only: simulated report and numerical result
  // must be byte-identical for every kernel/thread setting.
  Rng rng(13);
  const std::size_t n = 16, p = 32, c = 2;
  const Matrix a = integer_matrix(n, rng);
  const Matrix b = integer_matrix(n, rng);
  MachineParams base;
  base.t_s = 25.0;
  base.t_w = 1.5;
  const MatmulResult ref = Cannon25DAlgorithm(c).run(a, b, p, base);
  const ExecPolicy policies[] = {{Kernel::kCacheIkj, 4},
                                 {Kernel::kPacked, 1},
                                 {Kernel::kPacked, 4},
                                 {Kernel::kBlocked, 2}};
  for (const ExecPolicy& pol : policies) {
    MachineParams mp = base;
    mp.exec = pol;
    const MatmulResult got = Cannon25DAlgorithm(c).run(a, b, p, mp);
    EXPECT_TRUE(bit_identical(got.c, ref.c));
    EXPECT_EQ(got.report.t_parallel, ref.report.t_parallel);
    EXPECT_EQ(got.report.total_words, ref.report.total_words);
    EXPECT_EQ(got.report.total_messages, ref.report.total_messages);
    EXPECT_EQ(got.report.max_comm_time, ref.report.max_comm_time);
    EXPECT_EQ(got.report.max_idle_time, ref.report.max_idle_time);
  }
}

}  // namespace
}  // namespace hpmm
