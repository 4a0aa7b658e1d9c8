// The communication lower-bound layer: closed forms at hand-computed points,
// the clamps that make the bound honest (p = 1 must require nothing), the
// name -> class table, the strong-scaling range geometry, and the
// distance-from-optimal scoreboard conventions. The simulator never runs
// here; the measured-vs-bound oracle lives in tests/integration.

#include "analysis/bounds.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "analysis/perf_model.hpp"
#include "analysis/region_map.hpp"
#include "core/registry.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

MachineParams word_machine() {
  MachineParams m;
  m.t_s = 0.0;
  m.t_w = 1.0;
  m.t_h = 0.0;
  return m;
}

TEST(Bounds, MemIndependentRegimeAtHandComputedPoint) {
  // n = 64, p = 64, M = 192 (= 3n^2/p, one copy exactly filling memory):
  //   mem-dep  = 64^3/(64 sqrt(192)) - 192 = 512/sqrt(3) - 192 ~ 103.6
  //   mem-indep = 3 (64^3/64)^{2/3} - 3*64^2/64 = 3*256 - 192 = 576
  // The memory-independent regime binds.
  const CommLowerBound b = comm_lower_bound(64.0, 64.0, 192.0);
  EXPECT_DOUBLE_EQ(b.memory_words, 192.0);
  EXPECT_NEAR(b.words_mem_dependent, 512.0 / std::sqrt(3.0) - 192.0, 1e-9);
  EXPECT_DOUBLE_EQ(b.words_mem_independent, 576.0);
  EXPECT_DOUBLE_EQ(b.words, 576.0);
  EXPECT_DOUBLE_EQ(b.total_words, 64.0 * 576.0);
  EXPECT_DOUBLE_EQ(b.latency, 3.0);  // 576 words through a 192-word memory
}

TEST(Bounds, MemDependentRegimeBindsWhenMemoryIsScarce) {
  // DNS territory: n = 256, p = 65536, M = 3 words.
  //   mem-dep  = 256/sqrt(3) - 3 ~ 144.8
  //   mem-indep = 3*256^{2/3} - 3 ~ 118.0
  const CommLowerBound b = comm_lower_bound(256.0, 65536.0, 3.0);
  const double dep = 256.0 / std::sqrt(3.0) - 3.0;
  const double indep = 3.0 * std::pow(256.0, 2.0 / 3.0) - 3.0;
  EXPECT_NEAR(b.words_mem_dependent, dep, 1e-9);
  EXPECT_NEAR(b.words_mem_independent, indep, 1e-9);
  EXPECT_GT(b.words_mem_dependent, b.words_mem_independent);
  EXPECT_DOUBLE_EQ(b.words, b.words_mem_dependent);
  EXPECT_NEAR(b.latency, dep / 3.0, 1e-9);
}

TEST(Bounds, SingleProcessorRequiresNoCommunication) {
  // p = 1 with the whole working set resident: both regimes clamp to 0.
  // The -M and -3n^2/p subtractions exist exactly for this.
  const double n = 64.0;
  const CommLowerBound b = comm_lower_bound(n, 1.0, 3.0 * n * n);
  EXPECT_DOUBLE_EQ(b.words_mem_dependent, 0.0);
  EXPECT_DOUBLE_EQ(b.words_mem_independent, 0.0);
  EXPECT_DOUBLE_EQ(b.words, 0.0);
  EXPECT_DOUBLE_EQ(b.total_words, 0.0);
  EXPECT_DOUBLE_EQ(b.latency, 0.0);
}

TEST(Bounds, BoundGrowsAsMemoryShrinks) {
  // At fixed (n, p) the binding floor is monotone non-increasing in M:
  // more memory can only relax the requirement.
  double prev = std::numeric_limits<double>::infinity();
  for (const double m : {8.0, 64.0, 512.0, 4096.0, 32768.0}) {
    const double w = comm_lower_bound(128.0, 256.0, m).words;
    EXPECT_LE(w, prev) << "M=" << m;
    prev = w;
  }
}

TEST(Bounds, RejectsDegenerateArguments) {
  EXPECT_THROW(comm_lower_bound(0.5, 4.0, 64.0), PreconditionError);
  EXPECT_THROW(comm_lower_bound(8.0, 0.0, 64.0), PreconditionError);
  EXPECT_THROW(comm_lower_bound(8.0, 4.0, 0.0), PreconditionError);
  EXPECT_THROW(comm_lower_bound(8.0, 4.0, -3.0), PreconditionError);
}

// ---- classification table --------------------------------------------------

TEST(Bounds, ClassificationCoversEveryFormulationFamily) {
  // Each model declares its class; registry names resolve through their
  // models, aliases included.
  const auto& reg = default_registry();
  const MachineParams mp;
  for (const char* name :
       {"simple", "simple-ring", "simple-allport", "cannon", "cannon-gray",
        "fox", "fox-pipe"}) {
    EXPECT_EQ(reg.model(name, mp)->bounds_class(), BoundsClass::k2D) << name;
  }
  EXPECT_EQ(reg.model("cannon25d", mp)->bounds_class(), BoundsClass::k25D);
  for (const char* name :
       {"berntsen", "dns", "gk", "gk-jh", "gk-fc", "gk-allport"}) {
    EXPECT_EQ(reg.model(name, mp)->bounds_class(), BoundsClass::k3D) << name;
  }
}

TEST(Bounds, ClassNamesRender) {
  EXPECT_EQ(to_string(BoundsClass::k2D), "2D");
  EXPECT_EQ(to_string(BoundsClass::k25D), "2.5D");
  EXPECT_EQ(to_string(BoundsClass::k3D), "3D");
}

// ---- strong-scaling ranges -------------------------------------------------

TEST(Bounds, StrongScalingRangeGeometry) {
  // n = 64, M = 192: p_2d = 3n^2/M = 64, p_3d = 64^{3/2} = 512.
  const StrongScalingRange r2 = strong_scaling_range(BoundsClass::k2D, 64, 192);
  EXPECT_DOUBLE_EQ(r2.p_min, 64.0);
  EXPECT_DOUBLE_EQ(r2.p_max, 64.0);  // 2D is degenerate: one point

  const StrongScalingRange r25 =
      strong_scaling_range(BoundsClass::k25D, 64, 192);
  EXPECT_DOUBLE_EQ(r25.p_min, 64.0);
  EXPECT_DOUBLE_EQ(r25.p_max, 512.0);  // interval up to p_2d^{3/2}

  const StrongScalingRange r3 = strong_scaling_range(BoundsClass::k3D, 64, 192);
  EXPECT_DOUBLE_EQ(r3.p_min, 512.0);  // 3D degenerate at the 2.5D endpoint
  EXPECT_DOUBLE_EQ(r3.p_max, 512.0);
  EXPECT_DOUBLE_EQ(r3.p_min, std::pow(r2.p_min, 1.5));
}

TEST(Bounds, StrongScalingRangeClampsToOneProcessor) {
  // Memory so large that 3n^2/M < 1: every class clamps to the [1, 1] point.
  for (const BoundsClass cls :
       {BoundsClass::k2D, BoundsClass::k25D, BoundsClass::k3D}) {
    const StrongScalingRange r = strong_scaling_range(cls, 16, 1 << 20);
    EXPECT_DOUBLE_EQ(r.p_min, 1.0) << to_string(cls);
    EXPECT_DOUBLE_EQ(r.p_max, 1.0) << to_string(cls);
  }
}

TEST(Bounds, StrongScalingRangeRejectsDegenerateArguments) {
  EXPECT_THROW(strong_scaling_range(BoundsClass::k2D, 0.0, 64.0),
               PreconditionError);
  EXPECT_THROW(strong_scaling_range(BoundsClass::k2D, 8.0, 0.0),
               PreconditionError);
}

// ---- distance from optimal -------------------------------------------------

TEST(Bounds, DistanceScoresMeasuredAgainstTheModelsOwnFootprint) {
  // GK at n = 64, p = 64 keeps M = 3n^2/p^{2/3} = 768 words; at that M the
  // memory-dependent regime is vacuous and the memory-independent floor is
  // 576 words/proc (36864 total).
  const GkModel gk(word_machine());
  const DistanceFromOptimal d = distance_from_measured(gk, 64.0, 64.0, 40000.0);
  EXPECT_EQ(d.cls, BoundsClass::k3D);
  EXPECT_DOUBLE_EQ(d.n, 64.0);
  EXPECT_DOUBLE_EQ(d.p, 64.0);
  EXPECT_DOUBLE_EQ(d.bound.memory_words, 768.0);
  EXPECT_DOUBLE_EQ(d.bound.total_words, 36864.0);
  EXPECT_DOUBLE_EQ(d.measured_total_words, 40000.0);
  EXPECT_NEAR(d.ratio, 40000.0 / 36864.0, 1e-12);
}

TEST(Bounds, DistanceConventionsWhenTheBoundIsVacuous) {
  // p = 1: the bound is 0. Zero measured words scores a perfect 1; any
  // measured traffic where none was required scores +inf, not a division
  // artefact.
  const GkModel gk(word_machine());
  const DistanceFromOptimal perfect = distance_from_measured(gk, 64.0, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(perfect.bound.total_words, 0.0);
  EXPECT_DOUBLE_EQ(perfect.ratio, 1.0);

  const DistanceFromOptimal waste = distance_from_measured(gk, 64.0, 1.0, 5.0);
  EXPECT_TRUE(std::isinf(waste.ratio));
  EXPECT_GT(waste.ratio, 0.0);
}

TEST(Bounds, DistanceRejectsNegativeMeasurement) {
  const GkModel gk(word_machine());
  EXPECT_THROW(distance_from_measured(gk, 64.0, 64.0, -1.0), PreconditionError);
}

// ---- the regions overlay predicate -----------------------------------------

TEST(Bounds, RegionOverlayMarksWordEfficientFormulations) {
  // Cannon at n = 64, p = 64 moves 2n^2/sqrt(p) = 1024 words/proc against a
  // 576-word floor: within the 4x band. Berntsen at n = 256, p = 512 moves
  // 3n^2/p^{2/3} = 3072 against 2688: also within.
  EXPECT_TRUE(RegionMap::comm_optimal_at(64.0, 64.0, Region::kCannon));
  EXPECT_TRUE(RegionMap::comm_optimal_at(256.0, 512.0, Region::kBerntsen));
}

TEST(Bounds, RegionOverlayRejectsGkAtLargeP) {
  // GK's (5/3) n^2/p^{2/3} log p traffic leaves the 4x band once log p is
  // large: at n = 64, p = 4096 it moves ~7.1x the floor. At small p the log
  // factor is still modest and GK stays within the band.
  EXPECT_TRUE(RegionMap::comm_optimal_at(64.0, 8.0, Region::kGk));
  EXPECT_FALSE(RegionMap::comm_optimal_at(64.0, 4096.0, Region::kGk));
}

TEST(Bounds, RegionOverlayNeverMarksTheEmptyRegion) {
  EXPECT_FALSE(RegionMap::comm_optimal_at(64.0, 64.0, Region::kNone));
}

}  // namespace
}  // namespace hpmm
