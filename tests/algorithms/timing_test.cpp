#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/berntsen.hpp"
#include "algorithms/cannon.hpp"
#include "algorithms/dns.hpp"
#include "algorithms/fox.hpp"
#include "algorithms/gk.hpp"
#include "algorithms/simple_2d.hpp"
#include "core/registry.hpp"
#include "matrix/generate.hpp"

namespace hpmm {
namespace {

constexpr double kTs = 40.0;
constexpr double kTw = 2.5;

MachineParams test_params() {
  MachineParams m;
  m.t_s = kTs;
  m.t_w = kTw;
  return m;
}

/// Simulated T_p of an algorithm on random n x n operands.
double sim_time(const ParallelMatmul& alg, std::size_t n, std::size_t p) {
  Rng rng(31);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  return alg.run(a, b, p, test_params()).report.t_parallel;
}

double dn(std::size_t v) { return static_cast<double>(v); }

// The simulated algorithms execute phase-synchronously, so their T_p must
// equal the paper's expressions *exactly* (not just asymptotically), with
// the constants the simulation's collectives actually deliver.

TEST(Timing, CannonMatchesEq3Exactly) {
  // T_p = n^3/p + 2 t_s sqrt(p) + 2 t_w n^2/sqrt(p)   (Eq. 3)
  for (const auto [n, p] : {std::pair<std::size_t, std::size_t>{16, 16},
                            {16, 4}, {24, 64}, {12, 9}}) {
    const double sp = std::sqrt(dn(p));
    const double expect =
        dn(n) * dn(n) * dn(n) / dn(p) + 2.0 * kTs * sp + 2.0 * kTw * dn(n) * dn(n) / sp;
    EXPECT_NEAR(sim_time(CannonAlgorithm(), n, p), expect, 1e-9)
        << "n=" << n << " p=" << p;
  }
}

TEST(Timing, CannonSingleProcessorIsSerialTime) {
  EXPECT_DOUBLE_EQ(sim_time(CannonAlgorithm(), 8, 1), 512.0);
}

TEST(Timing, SimpleRecursiveDoublingExact) {
  // Two recursive-doubling all-to-alls: each t_s log sqrt(p) + t_w (n^2/p)(sqrt(p)-1).
  const std::size_t n = 16, p = 16;
  const double sp = 4.0, m = dn(n) * dn(n) / dn(p);
  const double expect =
      dn(n) * dn(n) * dn(n) / dn(p) + 2.0 * (kTs * 2.0 + kTw * m * (sp - 1.0));
  EXPECT_NEAR(sim_time(SimpleAlgorithm(), n, p), expect, 1e-9);
}

TEST(Timing, SimpleRingExact) {
  // Two ring all-to-alls: each (sqrt(p)-1)(t_s + t_w n^2/p).
  const std::size_t n = 12, p = 9;
  const double m = dn(n) * dn(n) / dn(p);
  const double expect = dn(n) * dn(n) * dn(n) / dn(p) + 2.0 * 2.0 * (kTs + kTw * m);
  EXPECT_NEAR(
      sim_time(SimpleAlgorithm(SimpleAlgorithm::Variant::kOnePortRing), n, p),
      expect, 1e-9);
}

TEST(Timing, FoxExact) {
  // Per iteration: binomial row broadcast (t_s + t_w m) log sqrt(p), then a
  // B roll (t_s + t_w m), no roll after the last iteration.
  const std::size_t n = 16, p = 16;
  const double sp = 4.0, m = dn(n) * dn(n) / dn(p);
  const double c = kTs + kTw * m;
  const double expect =
      dn(n) * dn(n) * dn(n) / dn(p) + sp * c * std::log2(sp) + (sp - 1.0) * c;
  EXPECT_NEAR(sim_time(FoxAlgorithm(), n, p), expect, 1e-9);
}

TEST(Timing, BerntsenExact) {
  // Cannon inside subcubes: 2 * p^{1/3} rounds of (t_s + t_w n^2/p), then a
  // recursive-halving reduce-scatter: (1/3) t_s log p + t_w (n^2/p^{2/3})(1 - p^{-1/3}).
  for (const auto [n, p] : {std::pair<std::size_t, std::size_t>{16, 8},
                            {16, 64}, {32, 64}}) {
    const double s = std::cbrt(dn(p));
    const double m_in = dn(n) * dn(n) / dn(p);
    const double m_red = dn(n) * dn(n) / std::pow(dn(p), 2.0 / 3.0);
    const double expect = dn(n) * dn(n) * dn(n) / dn(p) +
                          2.0 * s * (kTs + kTw * m_in) +
                          std::log2(s) * kTs + kTw * m_red * (1.0 - 1.0 / s);
    EXPECT_NEAR(sim_time(BerntsenAlgorithm(), n, p), expect, 1e-9)
        << "n=" << n << " p=" << p;
  }
}

TEST(Timing, GkMatchesEq7Exactly) {
  // T_p = n^3/p + (5/3) t_s log p + (5/3) t_w (n^2/p^{2/3}) log p   (Eq. 7)
  for (const auto [n, p] : {std::pair<std::size_t, std::size_t>{8, 8},
                            {16, 64}, {8, 64}, {16, 512}}) {
    const double lp = std::log2(dn(p));
    const double m = dn(n) * dn(n) / std::pow(dn(p), 2.0 / 3.0);
    const double expect = dn(n) * dn(n) * dn(n) / dn(p) +
                          (5.0 / 3.0) * lp * (kTs + kTw * m);
    EXPECT_NEAR(sim_time(GkAlgorithm(), n, p), expect, 1e-6)
        << "n=" << n << " p=" << p;
  }
}

TEST(Timing, GkFullyConnectedMatchesEq18Exactly) {
  // T_p = n^3/p + (log p + 2)(t_s + t_w n^2/p^{2/3})   (Eq. 18)
  for (const auto [n, p] : {std::pair<std::size_t, std::size_t>{8, 8},
                            {16, 64}, {16, 512}}) {
    const double lp = std::log2(dn(p));
    const double m = dn(n) * dn(n) / std::pow(dn(p), 2.0 / 3.0);
    const double expect =
        dn(n) * dn(n) * dn(n) / dn(p) + (lp + 2.0) * (kTs + kTw * m);
    EXPECT_NEAR(sim_time(GkAlgorithm(GkAlgorithm::Broadcast::kBinomial,
                                     GkAlgorithm::Interconnect::kFullyConnected),
                         n, p),
                expect, 1e-6)
        << "n=" << n << " p=" << p;
  }
}

TEST(Timing, DnsMatchesEq6Exactly) {
  // With p = n^2 r: T_p = n^3/p + (t_s + t_w)(5 log r + 2 n^3/p) exactly in
  // the simulation (alignment plus 2(m-1) shifts = 2m rounds when m > 1).
  for (const auto [n, p] : {std::pair<std::size_t, std::size_t>{4, 32},
                            {8, 128}, {8, 256}}) {
    const double r = dn(p) / (dn(n) * dn(n));
    const double m = dn(n) / r;  // = n^3/p
    const double c = kTs + kTw;
    const double expect = m + c * (5.0 * std::log2(r) + 2.0 * m);
    EXPECT_NEAR(sim_time(DnsAlgorithm(), n, p), expect, 1e-9)
        << "n=" << n << " p=" << p;
  }
}

TEST(Timing, DnsOneElementVersion) {
  // p = n^3 (r = n, m = 1): no internal Cannon, T_p = 1 + 5 (t_s + t_w) log n.
  const std::size_t n = 4, p = 64;
  const double expect = 1.0 + 5.0 * (kTs + kTw) * 2.0;
  EXPECT_NEAR(sim_time(DnsAlgorithm(), n, p), expect, 1e-9);
}

TEST(Timing, GkJohnssonHoMatchesSection541) {
  // Five phases, each priced as one pipelined broadcast of an
  // (n/p^{1/3})^2-word block over p^{1/3} processors.
  const std::size_t n = 16, p = 64;
  const double m = dn(n) * dn(n) / std::pow(dn(p), 2.0 / 3.0);
  const double phase = [&] {
    const double logg = std::log2(std::cbrt(dn(p)));
    const double packets = std::max(1.0, std::sqrt(kTs * m / (kTw * logg)));
    return kTs * logg + kTw * m + 2.0 * kTw * logg * packets;
  }();
  const double expect = dn(n) * dn(n) * dn(n) / dn(p) + 5.0 * phase;
  EXPECT_NEAR(sim_time(GkAlgorithm(GkAlgorithm::Broadcast::kJohnssonHo), n, p),
              expect, 1e-6);
}

TEST(Timing, GkAllPortMatchesEq17) {
  // T_p = n^3/p + t_s log p + 9 t_w n^2/(p^{2/3} log p) + 6 n p^{-1/3} sqrt(t_s t_w).
  const std::size_t n = 16, p = 64;
  const double lp = 6.0;
  const double m = dn(n) * dn(n) / std::pow(dn(p), 2.0 / 3.0);
  const double expect = dn(n) * dn(n) * dn(n) / dn(p) + kTs * lp +
                        9.0 * kTw * m / lp +
                        6.0 * dn(n) / std::cbrt(dn(p)) * std::sqrt(kTs * kTw);
  EXPECT_NEAR(sim_time(GkAlgorithm(GkAlgorithm::Broadcast::kAllPort), n, p),
              expect, 1e-6);
}

TEST(Timing, SimpleAllPortMatchesEq16) {
  // T_p = n^3/p + 2 t_w n^2/(sqrt(p) log p) + (1/2) t_s log p.
  const std::size_t n = 16, p = 16;
  const double lp = 4.0;
  const double expect = dn(n) * dn(n) * dn(n) / dn(p) +
                        2.0 * kTw * dn(n) * dn(n) / (std::sqrt(dn(p)) * lp) +
                        0.5 * kTs * lp;
  EXPECT_NEAR(
      sim_time(SimpleAlgorithm(SimpleAlgorithm::Variant::kAllPort), n, p),
      expect, 1e-6);
}

TEST(Timing, GkBeatsCannonAtSmallNLargeP) {
  // The headline behaviour: for small matrices on many processors the GK
  // algorithm outperforms Cannon's (Section 6 / Figure 4).
  const std::size_t n = 8, p = 64;
  EXPECT_LT(sim_time(GkAlgorithm(), n, p), sim_time(CannonAlgorithm(), n, p));
}

TEST(Timing, CannonBeatsGkAtLargeNModerateP) {
  // And the reverse at large granularity: Cannon has no log p factor on t_w.
  const std::size_t n = 128, p = 64;
  EXPECT_GT(sim_time(GkAlgorithm(), n, p), sim_time(CannonAlgorithm(), n, p));
}

TEST(Timing, OverheadNonNegativeEverywhere) {
  Rng rng(8);
  const Matrix a = random_matrix(16, 16, rng);
  const Matrix b = random_matrix(16, 16, rng);
  for (const auto& name : default_registry().selectable_names()) {
    const ParallelMatmul& alg = default_registry().implementation(name);
    for (std::size_t p : {1u, 4u, 8u, 16u, 64u}) {
      if (!alg.applicable(16, p)) continue;
      const auto res = alg.run(a, b, p, test_params());
      EXPECT_GE(res.report.total_overhead(), -1e-9)
          << name << " p=" << p;
      EXPECT_LE(res.report.efficiency(), 1.0 + 1e-12);
    }
  }
}

}  // namespace
}  // namespace hpmm
