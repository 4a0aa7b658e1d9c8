// Cross-module consistency: independent components that answer the same
// question must agree — the selector vs the region map, the models vs the
// sensitivity split, the iso solver vs the speedup helpers.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/isoefficiency.hpp"
#include "analysis/region_map.hpp"
#include "analysis/sensitivity.hpp"
#include "analysis/speedup.hpp"
#include "core/registry.hpp"
#include "core/selector.hpp"
#include "util/rng.hpp"

namespace hpmm {
namespace {

MachineParams params(double ts, double tw) {
  MachineParams m;
  m.t_s = ts;
  m.t_w = tw;
  return m;
}

std::string region_name(Region r) { return to_string(r); }

TEST(Consistency, SelectorAgreesWithRegionMap) {
  // Both rank the four Table 1 formulations; the selector minimises T_p, the
  // map minimises T_o — identical orderings when both compare at the same p
  // (T_p = W/p + T_o/p).
  Rng rng(77);
  for (const auto& mp : {params(150, 3), params(10, 3), params(0.5, 3)}) {
    for (int trial = 0; trial < 40; ++trial) {
      const auto n = static_cast<std::size_t>(8 + rng.next_below(2000));
      const auto p = static_cast<std::size_t>(2 + rng.next_below(100000));
      const Region region = RegionMap::best_at(
          mp, static_cast<double>(n), static_cast<double>(p));
      const Selection sel =
          select_among_table1(n, p, mp, /*require_simulatable=*/false);
      if (region == Region::kNone) {
        EXPECT_TRUE(sel.best.empty()) << "n=" << n << " p=" << p;
      } else {
        EXPECT_EQ(sel.best, region_name(region))
            << "n=" << n << " p=" << p << " ts=" << mp.t_s;
      }
    }
  }
}

TEST(Consistency, EveryRegistryImplStaysInsideItsModelRange) {
  // For every registered formulation (the registry is the single source of
  // truth — new entries are covered automatically): wherever the simulated
  // implementation accepts an (n, p), its analytic model must accept the
  // point too. The implementation adds divisibility/layout constraints on
  // top of the model's Table 1 range, never the reverse.
  const auto& reg = default_registry();
  const MachineParams mp = params(150, 3);
  // Structured grids: uniform random (n, p) virtually never satisfies the
  // layout divisibility constraints, so sweep shapes each family can accept.
  const std::size_t n_choices[] = {8, 12, 16, 24, 32, 48, 64, 96};
  const std::size_t p_choices[] = {1,  4,   8,   9,   16,  25,   27,  32,
                                   36, 64,  128, 256, 512, 1024, 2048, 4096};
  std::size_t checked = 0;
  for (const std::size_t n : n_choices) {
    for (const std::size_t p : p_choices) {
      for (const auto& name : reg.names()) {
        if (!reg.implementation(name).applicable(n, p)) continue;
        const auto model = reg.model(name, mp);
        EXPECT_TRUE(model->applicable(static_cast<double>(n),
                                      static_cast<double>(p)))
            << name << " n=" << n << " p=" << p;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 300u);  // the sweep must not be vacuous
}

TEST(Consistency, IsoSolverAgreesWithIsoefficientSpeedup) {
  const GkModel m(params(150, 3));
  const double p = 4096, e = 0.6;
  const auto n = iso_matrix_order(m, p, e);
  ASSERT_TRUE(n);
  const auto pts = isoefficient_speedup(m, e, std::vector<double>{p});
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_NEAR(pts[0].speedup, m.speedup(*n, p), 1e-6 * pts[0].speedup);
}

TEST(Consistency, SensitivitySplitMatchesModelAtCrossoverPoints) {
  // At Eq. 15's GK-vs-Cannon crossover, the two total overheads agree, and
  // each model's split still sums to its own comm time.
  const MachineParams mp = params(150, 3);
  const GkModel gk(mp);
  const CannonModel cannon(mp);
  const double p = 4096;
  // A crossover exists for this machine/p (tested elsewhere); sample points
  // around it and confirm the splits track the totals.
  for (double n : {50.0, 224.0, 1000.0}) {
    EXPECT_NEAR(overhead_split<GkModel>(mp, n, p).total(),
                gk.comm_time(n, p), 1e-9 * gk.comm_time(n, p));
    EXPECT_NEAR(overhead_split<CannonModel>(mp, n, p).total(),
                cannon.comm_time(n, p), 1e-9 * cannon.comm_time(n, p));
  }
}

TEST(Consistency, MaxSpeedupSitsInsideTheApplicableRange) {
  for (const auto& mp : {params(150, 3), params(0.5, 3)}) {
    const CannonModel cannon(mp);
    const auto best = max_fixed_size_speedup(cannon, 256);
    ASSERT_TRUE(best);
    EXPECT_TRUE(cannon.applicable(256, best->p));
    // Efficiency at the peak equals speedup/p by definition.
    EXPECT_NEAR(best->efficiency, best->speedup / best->p, 1e-12);
  }
}

TEST(Consistency, EfficiencyFromModelMatchesSimToleranceBand) {
  // select() predictions use the same models validated against the
  // simulator elsewhere; spot-check the chain end to end for one case.
  // n = 15 keeps Berntsen out (p > n^{3/2}), leaving the GK-vs-Cannon duel
  // of Figure 4's regime.
  const MachineParams mp = params(150, 3);
  const Selection sel =
      select_among_table1(15, 64, mp, /*require_simulatable=*/false);
  ASSERT_EQ(sel.best, "gk");
  const GkModel gk(mp);
  EXPECT_NEAR(sel.t_parallel, gk.t_parallel(15, 64), 1e-9);
  EXPECT_NEAR(sel.efficiency, gk.efficiency(15, 64), 1e-12);
}

}  // namespace
}  // namespace hpmm
