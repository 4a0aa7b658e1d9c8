#include "analysis/perf_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/registry.hpp"

namespace hpmm {
namespace {

MachineParams params(double ts, double tw) {
  MachineParams m;
  m.t_s = ts;
  m.t_w = tw;
  return m;
}

/// Every registry entry's model (aliases included), bound to `mp`.
std::vector<std::unique_ptr<PerfModel>> registry_models(const MachineParams& mp) {
  std::vector<std::unique_ptr<PerfModel>> out;
  for (const auto& name : default_registry().names()) {
    out.push_back(default_registry().model(name, mp));
  }
  return out;
}

TEST(PerfModel, CannonEq3AtHandComputedPoint) {
  CannonModel m(params(150, 3));
  // n = 100, p = 100: n^3/p = 10000, comm = 2*150*10 + 2*3*10000/10 = 9000.
  EXPECT_DOUBLE_EQ(m.t_parallel(100, 100), 19000.0);
  EXPECT_DOUBLE_EQ(m.t_overhead(100, 100), 900000.0);
  EXPECT_DOUBLE_EQ(m.comm_time(100, 1), 0.0);
}

TEST(PerfModel, SimpleEq2AtHandComputedPoint) {
  SimpleModel m(params(10, 2));
  // p = 16: comm = 2*10*4 + 2*2*n^2/4 = 80 + n^2.
  EXPECT_DOUBLE_EQ(m.comm_time(8, 16), 80.0 + 64.0);
}

TEST(PerfModel, FoxEq4AtHandComputedPoint) {
  FoxModel m(params(10, 2));
  // comm = 2 t_w n^2/sqrt(p) + t_s p = 4*64/4 + 160.
  EXPECT_DOUBLE_EQ(m.comm_time(8, 16), 64.0 + 160.0);
}

TEST(PerfModel, BerntsenEq5AtHandComputedPoint) {
  BerntsenModel m(params(30, 3));
  // p = 64: 2*30*4 + 10*6/... (1/3)*30*6 = 60, 3*3*n^2/16.
  const double expect = 2.0 * 30 * 4 + 30.0 * 6 / 3.0 + 9.0 * 64.0 * 64.0 / 16.0;
  EXPECT_DOUBLE_EQ(m.comm_time(64, 64), expect);
}

TEST(PerfModel, DnsEq6AtHandComputedPoint) {
  DnsModel m(params(10, 2));
  // n = 8, p = 128 (r = 2): (t_s + t_w)(5*1 + 2*4) = 12*13.
  EXPECT_DOUBLE_EQ(m.comm_time(8, 128), 156.0);
  EXPECT_DOUBLE_EQ(m.t_parallel(8, 128), 4.0 + 156.0);
}

TEST(PerfModel, GkEq7AtHandComputedPoint) {
  GkModel m(params(150, 3));
  // n = 64, p = 64: (5/3)*150*6 + (5/3)*3*(4096/16)*6 = 1500 + 7680.
  EXPECT_DOUBLE_EQ(m.comm_time(64, 64), 1500.0 + 7680.0);
}

TEST(PerfModel, GkCm5Eq18AtHandComputedPoint) {
  GkCm5Model m(params(248.37, 1.176));
  // n = 64, p = 64: (log p + 2) (t_s + t_w * 256).
  const double expect = 8.0 * (248.37 + 1.176 * 256.0);
  EXPECT_DOUBLE_EQ(m.comm_time(64, 64), expect);
}

TEST(PerfModel, EfficiencyIdentity) {
  // E = 1/(1 + T_o/W) must hold for every model.
  const MachineParams mp = params(50, 3);
  for (const auto& m : registry_models(mp)) {
    const double n = 256, p = 64;
    if (!m->applicable(n, p)) continue;
    const double e1 = m->efficiency(n, p);
    const double e2 = 1.0 / (1.0 + m->t_overhead(n, p) / (n * n * n));
    EXPECT_NEAR(e1, e2, 1e-12) << m->name();
  }
}

TEST(PerfModel, EfficiencyMonotoneInN) {
  const MachineParams mp = params(150, 3);
  for (const auto& m : registry_models(mp)) {
    double prev = 0.0;
    for (double n = 64; n <= 4096; n *= 2) {
      const double p = 64;
      if (!m->applicable(n, p)) continue;
      const double e = m->efficiency(n, p);
      EXPECT_GE(e, prev - 1e-12) << m->name() << " n=" << n;
      prev = e;
    }
  }
}

TEST(PerfModel, EfficiencyDecreasesInP) {
  const MachineParams mp = params(150, 3);
  GkModel gk(mp);
  double prev = 1.0;
  for (double p = 8; p <= 32768; p *= 8) {
    const double e = gk.efficiency(512, p);
    EXPECT_LT(e, prev) << "p=" << p;
    prev = e;
  }
}

TEST(PerfModel, DnsEfficiencyCeiling) {
  DnsModel m(params(10, 2));
  EXPECT_DOUBLE_EQ(m.efficiency_ceiling(), 1.0 / 25.0);
  // At r = 1 (p = n^2, no log term) the ceiling is attained exactly...
  EXPECT_NEAR(m.efficiency(64, 64 * 64), m.efficiency_ceiling(), 1e-12);
  // ...and everywhere inside the range the efficiency stays strictly below.
  for (double p : {4096.0, 32768.0}) {
    const double n = std::sqrt(p) / 2.0;  // r = 4
    EXPECT_LT(m.efficiency(n, p), m.efficiency_ceiling());
  }
}

TEST(PerfModel, ApplicabilityRanges) {
  const MachineParams mp = params(150, 3);
  BerntsenModel b(mp);
  EXPECT_TRUE(b.applicable(100, 1000.0));   // 1000 = n^1.5
  EXPECT_FALSE(b.applicable(100, 1001.0));  // just above
  CannonModel c(mp);
  EXPECT_TRUE(c.applicable(100, 10000.0));
  EXPECT_FALSE(c.applicable(100, 10001.0));
  DnsModel d(mp);
  EXPECT_FALSE(d.applicable(100, 9999.0));  // below n^2
  EXPECT_TRUE(d.applicable(100, 10000.0));
  EXPECT_TRUE(d.applicable(100, 1e6));      // n^3
  EXPECT_FALSE(d.applicable(100, 1.1e6));
  GkModel g(mp);
  EXPECT_TRUE(g.applicable(100, 1e6));
  EXPECT_FALSE(g.applicable(100, 1.1e6));
}

TEST(PerfModel, MemoryClaims) {
  const MachineParams mp = params(150, 3);
  // Simple is memory-inefficient: O(n^2/sqrt(p)) vs Cannon's O(n^2/p).
  SimpleModel s(mp);
  CannonModel c(mp);
  EXPECT_GT(s.memory_per_proc(1024, 1024), 10.0 * c.memory_per_proc(1024, 1024));
  // Berntsen stores 2 n^2/p + n^2/p^{2/3}.
  BerntsenModel b(mp);
  EXPECT_DOUBLE_EQ(b.memory_per_proc(64, 64),
                   2.0 * 64.0 * 64.0 / 64.0 + 64.0 * 64.0 / 16.0);
  DnsModel d(mp);
  EXPECT_DOUBLE_EQ(d.memory_per_proc(64, 64 * 64 * 8), 3.0);
}

TEST(PerfModel, GranularityBounds) {
  const MachineParams mp = params(150, 3);
  SimpleAllPortModel sap(mp);
  EXPECT_DOUBLE_EQ(sap.min_n_for_channels(64), 0.5 * 8.0 * 6.0);
  GkJohnssonHoModel jh(mp);
  EXPECT_NEAR(jh.min_n_for_packets(64), std::sqrt(50.0 * 6.0) * 4.0, 1e-9);
}

TEST(PerfModel, Table1ModelsOrderAndCount) {
  const auto models = table1_models(params(150, 3));
  ASSERT_EQ(models.size(), 4u);
  EXPECT_EQ(models[0]->name(), "berntsen");
  EXPECT_EQ(models[1]->name(), "cannon");
  EXPECT_EQ(models[2]->name(), "gk");
  EXPECT_EQ(models[3]->name(), "dns");
}

TEST(PerfModel, AllModelsCount) {
  // Fourteen registry entries share twelve models: cannon-gray and fox-pipe
  // are aliases of cannon and fox.
  std::set<std::string> names;
  for (const auto& m : registry_models(params(1, 1))) names.insert(m->name());
  EXPECT_EQ(names.size(), 12u);
}

TEST(PerfModel, Table1ModelsDeclareTheirRegionLetters) {
  const auto models = table1_models(params(150, 3));
  const Region letters[] = {Region::kBerntsen, Region::kCannon, Region::kGk,
                            Region::kDns};
  for (std::size_t i = 0; i < models.size(); ++i) {
    EXPECT_EQ(models[i]->region(), letters[i]) << models[i]->name();
  }
  EXPECT_EQ(Cannon25DModel(params(150, 3)).region(), Region::kCannon25);
  EXPECT_EQ(SimpleModel(params(150, 3)).region(), Region::kNone);
}

TEST(PerfModel, Cannon25DReducesToCannonAtC1) {
  const MachineParams mp = params(150, 3);
  const CannonModel cannon(mp);
  const Cannon25DModel c25(mp, 1);
  for (double p : {4.0, 64.0, 1024.0}) {
    for (double n : {32.0, 256.0}) {
      EXPECT_NEAR(c25.comm_time(n, p), cannon.comm_time(n, p),
                  1e-9 * cannon.comm_time(n, p))
          << "n=" << n << " p=" << p;
      EXPECT_DOUBLE_EQ(c25.memory_per_proc(n, p), cannon.memory_per_proc(n, p));
    }
  }
}

TEST(PerfModel, Cannon25DClosedForm) {
  // T_o/p = (3 log2 c + 2 sqrt(p/c^3)) (t_s + t_w c n^2/p).
  const MachineParams mp = params(150, 3);
  const Cannon25DModel m(mp, 4);
  const double n = 256, p = 1024;
  const double rounds = 3.0 * 2.0 + 2.0 * std::sqrt(1024.0 / 64.0);
  const double words = 4.0 * n * n / p;
  EXPECT_NEAR(m.comm_time(n, p), rounds * (150.0 + 3.0 * words), 1e-9);
  EXPECT_DOUBLE_EQ(m.memory_per_proc(n, p), 3.0 * 4.0 * n * n / p);
  EXPECT_DOUBLE_EQ(m.min_procs(n), 64.0);
  EXPECT_DOUBLE_EQ(m.max_procs(n), 4.0 * n * n);
}

TEST(PerfModel, Cannon25DBandwidthTermBeatsCannonAtScale) {
  // The per-layer bandwidth term is 2 t_w n^2/sqrt(pc) vs Cannon's
  // 2 t_w n^2/sqrt(p); once p is large enough for the bandwidth side to
  // dominate the 3 log2 c extra startup rounds, replication wins outright.
  const MachineParams mp = params(150, 3);
  const CannonModel cannon(mp);
  const Cannon25DModel c2(mp, 2);
  const double n = 4096;
  EXPECT_LT(c2.comm_time(n, 65536), cannon.comm_time(n, 65536));
  // At tiny p the extra broadcast/reduce rounds dominate and c = 1 is best.
  EXPECT_GT(c2.comm_time(n, 16), cannon.comm_time(n, 16));
}

TEST(PerfModel, BerntsenHasSmallestOverheadWhereApplicable) {
  // Section 10: Berntsen's is the cheapest in communication where it
  // applies (large n relative to p).
  const MachineParams mp = params(150, 3);
  BerntsenModel b(mp);
  CannonModel c(mp);
  GkModel g(mp);
  const double n = 4096, p = 512;
  EXPECT_LT(b.t_overhead(n, p), c.t_overhead(n, p));
  EXPECT_LT(b.t_overhead(n, p), g.t_overhead(n, p));
}

}  // namespace
}  // namespace hpmm
