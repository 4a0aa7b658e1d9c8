#include "analysis/isoefficiency.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "machine/params.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

MachineParams params(double ts, double tw) {
  MachineParams m;
  m.t_s = ts;
  m.t_w = tw;
  return m;
}

std::vector<double> log_grid(double lo, double hi, int count) {
  std::vector<double> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(lo * std::pow(hi / lo, double(i) / (count - 1)));
  }
  return out;
}

TEST(Isoefficiency, SolvedOrderAchievesTheEfficiency) {
  const CannonModel m(params(150, 3));
  for (double p : {64.0, 1024.0, 65536.0}) {
    for (double e : {0.5, 0.7, 0.9}) {
      const auto n = iso_matrix_order(m, p, e);
      ASSERT_TRUE(n) << "p=" << p << " E=" << e;
      EXPECT_GE(m.efficiency(*n, p), e - 1e-6);
      // And only just: 1% less n falls below the target.
      EXPECT_LT(m.efficiency(*n * 0.99, p), e);
    }
  }
}

TEST(Isoefficiency, ValidatesArguments) {
  const CannonModel m(params(1, 1));
  EXPECT_THROW(iso_matrix_order(m, 0.5, 0.5), PreconditionError);
  EXPECT_THROW(iso_matrix_order(m, 4.0, 0.0), PreconditionError);
  EXPECT_THROW(iso_matrix_order(m, 4.0, 1.0), PreconditionError);
}

TEST(Isoefficiency, SingleProcessorIsTrivial) {
  const CannonModel m(params(150, 3));
  EXPECT_DOUBLE_EQ(*iso_matrix_order(m, 1.0, 0.9), 1.0);
}

TEST(Isoefficiency, CannonExponentIs1_5) {
  // Table 1: Cannon's isoefficiency is Θ(p^{1.5}).
  const CannonModel m(params(150, 3));
  const auto ps = log_grid(1e4, 1e10, 12);
  const auto fit = fit_isoefficiency_exponent(m, 0.7, ps);
  EXPECT_EQ(fit.points, 12u);
  EXPECT_NEAR(fit.exponent, 1.5, 0.05);
}

TEST(Isoefficiency, BerntsenExponentIs2) {
  // Table 1: Θ(p^2), forced by the p <= n^{3/2} concurrency bound. Fit over
  // large p, where the concurrency term dominates the (p^{4/3} and p) comm
  // terms.
  const BerntsenModel m(params(150, 3));
  const auto ps = log_grid(1e6, 1e12, 12);
  const auto fit = fit_isoefficiency_exponent(m, 0.7, ps);
  EXPECT_NEAR(fit.exponent, 2.0, 0.05);
}

TEST(Isoefficiency, GkExponentIsNearOnePlusPolylog) {
  // Θ(p (log p)^3): the fitted power over a finite range exceeds 1 slightly
  // (the polylog), but is well below Cannon's 1.5.
  const GkModel m(params(150, 3));
  const auto ps = log_grid(1e6, 1e12, 12);
  const auto fit = fit_isoefficiency_exponent(m, 0.7, ps);
  EXPECT_GT(fit.exponent, 1.0);
  EXPECT_LT(fit.exponent, 1.35);
}

TEST(Isoefficiency, DnsExponentIsNearOne) {
  // Θ(p log p) — the best possible for the conventional algorithm. Use an
  // efficiency below the DNS ceiling.
  const MachineParams mp = params(0.5, 0.1);  // ceiling = 1/(1+1.2) = 0.45
  const DnsModel m(mp);
  const auto ps = log_grid(1e6, 1e12, 12);
  const auto fit = fit_isoefficiency_exponent(m, 0.3, ps);
  EXPECT_EQ(fit.points, 12u);
  EXPECT_GT(fit.exponent, 0.95);
  EXPECT_LT(fit.exponent, 1.2);
}

TEST(Isoefficiency, DnsUnreachableAboveCeiling) {
  const DnsModel m(params(10, 2));  // ceiling = 1/25
  EXPECT_FALSE(iso_problem_size(m, 4096, 0.5).has_value());
  EXPECT_TRUE(iso_problem_size(m, 4096, 0.03).has_value());
}

TEST(Isoefficiency, ScalabilityOrderingMatchesTable1) {
  // At large p, required W orders as: DNS < GK < Cannon < Berntsen.
  const MachineParams mp = params(0.5, 0.1);
  const double p = 1e10, e = 0.3;
  const auto w_dns = iso_problem_size(DnsModel(mp), p, e);
  const auto w_gk = iso_problem_size(GkModel(mp), p, e);
  const auto w_cannon = iso_problem_size(CannonModel(mp), p, e);
  const auto w_bernt = iso_problem_size(BerntsenModel(mp), p, e);
  ASSERT_TRUE(w_dns && w_gk && w_cannon && w_bernt);
  EXPECT_LT(*w_dns, *w_gk);
  EXPECT_LT(*w_gk, *w_cannon);
  EXPECT_LT(*w_cannon, *w_bernt);
}

TEST(Isoefficiency, TwCubedSensitivity) {
  // Section 8: the t_w term's isoefficiency carries a t_w^3 factor — scaling
  // t_w by k scales the required W by ~k^3 (when the t_w term dominates).
  const double p = 1e8, e = 0.7;
  const CannonModel slow(params(0.0, 3.0));
  const CannonModel fast(params(0.0, 30.0));
  const auto w1 = iso_problem_size(slow, p, e);
  const auto w2 = iso_problem_size(fast, p, e);
  ASSERT_TRUE(w1 && w2);
  EXPECT_NEAR(*w2 / *w1, 1000.0, 1.0);
}

TEST(Isoefficiency, HigherEfficiencyNeedsBiggerProblem) {
  const GkModel m(params(150, 3));
  const double p = 1e6;
  const auto w_lo = iso_problem_size(m, p, 0.5);
  const auto w_hi = iso_problem_size(m, p, 0.9);
  ASSERT_TRUE(w_lo && w_hi);
  EXPECT_GT(*w_hi, *w_lo);
}

TEST(Isoefficiency, Table1AsymptoticExponents) {
  const MachineParams mp = params(150, 3);
  EXPECT_DOUBLE_EQ(BerntsenModel(mp).isoefficiency_exponent(), 2.0);
  EXPECT_DOUBLE_EQ(CannonModel(mp).isoefficiency_exponent(), 1.5);
  EXPECT_DOUBLE_EQ(GkModel(mp).isoefficiency_exponent(), 1.0);
  EXPECT_DOUBLE_EQ(DnsModel(mp).isoefficiency_exponent(), 1.0);
}

TEST(Isoefficiency, FitHandlesUnreachablePoints) {
  const DnsModel m(params(10, 2));
  const auto ps = log_grid(1e6, 1e10, 8);
  const auto fit = fit_isoefficiency_exponent(m, 0.9, ps);  // above ceiling
  EXPECT_EQ(fit.points, 0u);
  EXPECT_DOUBLE_EQ(fit.exponent, 0.0);
}

}  // namespace
}  // namespace hpmm
