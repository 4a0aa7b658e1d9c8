#include <gtest/gtest.h>

#include "algorithms/berntsen.hpp"
#include "algorithms/cannon.hpp"
#include "algorithms/cannon_25d.hpp"
#include "algorithms/dns.hpp"
#include "algorithms/fox.hpp"
#include "algorithms/gk.hpp"
#include "algorithms/simple_2d.hpp"
#include "core/registry.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

TEST(Applicability, CannonRequiresPerfectSquareDividingN) {
  CannonAlgorithm c;
  EXPECT_TRUE(c.applicable(12, 9));
  EXPECT_FALSE(c.applicable(12, 8));    // not a square
  EXPECT_FALSE(c.applicable(10, 9));    // 3 does not divide 10
  EXPECT_FALSE(c.applicable(4, 25));    // p > n^2
  EXPECT_TRUE(c.applicable(4, 16));     // p = n^2 allowed
  EXPECT_THROW(c.check_applicable(12, 8), PreconditionError);
}

TEST(Applicability, SimpleHypercubeNeedsPow2Side) {
  SimpleAlgorithm s;
  EXPECT_TRUE(s.applicable(12, 4));
  EXPECT_FALSE(s.applicable(12, 9));  // 3 not a power of two
  SimpleAlgorithm ring(SimpleAlgorithm::Variant::kOnePortRing);
  EXPECT_TRUE(ring.applicable(12, 9));  // torus accepts any square
}

TEST(Applicability, SimpleAllPortGranularityBound) {
  SimpleAlgorithm ap(SimpleAlgorithm::Variant::kAllPort);
  // Section 7.1: n >= (1/2) sqrt(p) log p.
  EXPECT_TRUE(ap.applicable(8, 16));    // 8 >= 8
  EXPECT_FALSE(ap.applicable(7, 16));   // would starve the channels (7 < 8,
                                        // and 4 does not divide 7 either)
  EXPECT_FALSE(ap.applicable(12, 64));  // 12 < 24
}

TEST(Applicability, FoxMatchesCannonPlusPow2) {
  FoxAlgorithm f;
  EXPECT_TRUE(f.applicable(8, 16));
  EXPECT_FALSE(f.applicable(12, 9));
}

TEST(Applicability, BerntsenConcurrencyLimit) {
  BerntsenAlgorithm b;
  // p <= n^{3/2}: for n = 16, limit is 64.
  EXPECT_TRUE(b.applicable(16, 64));
  EXPECT_FALSE(b.applicable(16, 512));
  EXPECT_FALSE(b.applicable(16, 128));  // not 2^{3q} either
  // p must be 2^{3q}.
  EXPECT_FALSE(b.applicable(64, 16));
  EXPECT_TRUE(b.applicable(64, 8));
  // p^{2/3} must divide n.
  EXPECT_FALSE(b.applicable(18, 64));  // 16 does not divide 18
  EXPECT_TRUE(b.applicable(32, 64));
}

TEST(Applicability, BerntsenBoundaryIsExact) {
  BerntsenAlgorithm b;
  // n = 4: n^{3/2} = 8, so p = 8 is exactly at the limit.
  EXPECT_TRUE(b.applicable(4, 8));
  // n = 3 -> n^{3/2} ~ 5.2 < 8.
  EXPECT_FALSE(b.applicable(3, 8));
}

TEST(Applicability, DnsRange) {
  DnsAlgorithm d;
  EXPECT_FALSE(d.applicable(8, 32));   // p < n^2
  EXPECT_TRUE(d.applicable(8, 64));    // p = n^2 (r = 1)
  EXPECT_TRUE(d.applicable(8, 512));   // p = n^3
  EXPECT_FALSE(d.applicable(8, 1024)); // p > n^3
  EXPECT_FALSE(d.applicable(8, 96));   // r = 1.5 not a power of two
  EXPECT_FALSE(d.applicable(6, 36));   // n not a power of two
}

TEST(Applicability, GkFullRange) {
  GkAlgorithm g;
  EXPECT_TRUE(g.applicable(8, 1));
  EXPECT_TRUE(g.applicable(8, 8));
  EXPECT_TRUE(g.applicable(8, 64));
  EXPECT_TRUE(g.applicable(8, 512));    // p = n^3
  EXPECT_FALSE(g.applicable(8, 4096));  // p > n^3
  EXPECT_FALSE(g.applicable(8, 16));    // not 2^{3q}
}

TEST(Applicability, GkDivisibility) {
  GkAlgorithm g;
  EXPECT_TRUE(g.applicable(10, 8));    // p^{1/3} = 2 divides 10
  EXPECT_FALSE(g.applicable(10, 64));  // 4 does not divide 10
  EXPECT_TRUE(g.applicable(12, 64));
}

TEST(Applicability, RunRejectsInapplicableCombos) {
  Matrix a(8, 8), b(8, 8);
  MachineParams mp;
  EXPECT_THROW(CannonAlgorithm().run(a, b, 5, mp), PreconditionError);
  EXPECT_THROW(DnsAlgorithm().run(a, b, 32, mp), PreconditionError);
  EXPECT_THROW(GkAlgorithm().run(a, b, 16, mp), PreconditionError);
  EXPECT_THROW(BerntsenAlgorithm().run(a, b, 512, mp), PreconditionError);
}

TEST(Applicability, Cannon25DGridAndReplicationConstraints) {
  Cannon25DAlgorithm c2;  // c = 2
  EXPECT_TRUE(c2.applicable(8, 8));      // 2 x (2x2): q = 2, c | q
  EXPECT_TRUE(c2.applicable(16, 32));    // 2 x (4x4)
  EXPECT_TRUE(c2.applicable(16, 128));   // 2 x (8x8)
  EXPECT_FALSE(c2.applicable(16, 16));   // p/c = 8 not a perfect square
  EXPECT_FALSE(c2.applicable(16, 2));    // c^3 = 8 > p
  EXPECT_FALSE(c2.applicable(10, 32));   // q = 4 does not divide 10
  EXPECT_FALSE(c2.applicable(2, 32));    // p > c n^2
  EXPECT_THROW(c2.check_applicable(16, 16), PreconditionError);

  Cannon25DAlgorithm c4(4);
  EXPECT_TRUE(c4.applicable(16, 64));    // 4 x (4x4), c | q, c^3 = 64 <= p
  EXPECT_FALSE(c4.applicable(16, 36));   // q = 3 not divisible by c = 4
  EXPECT_FALSE(c4.applicable(16, 16));   // c^3 > p

  Cannon25DAlgorithm c3(3);              // replication must be a power of two
  EXPECT_FALSE(c3.applicable(18, 27));
  EXPECT_THROW(c3.check_applicable(18, 27), PreconditionError);

  // c = 1 degenerates to plain Cannon's grid (any perfect square p <= n^2).
  Cannon25DAlgorithm c1(1);
  EXPECT_TRUE(c1.applicable(12, 9));
  EXPECT_FALSE(c1.applicable(12, 8));
}

TEST(Applicability, Cannon25DErrorsNameTheFlag) {
  // The CLI exposes the replication factor as --c; precondition messages
  // must point at it so a failed run is actionable.
  Cannon25DAlgorithm c2;
  try {
    c2.check_applicable(16, 16);  // c q^2 != p
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("--c"), std::string::npos) << e.what();
  }
  Cannon25DAlgorithm c8(8);
  try {
    c8.check_applicable(64, 16);  // c^3 = 512 > p
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("--c"), std::string::npos) << e.what();
  }
}

TEST(Applicability, EveryAlgorithmAcceptsSingleProcessorOrSaysWhy) {
  for (const auto& name : default_registry().selectable_names()) {
    const ParallelMatmul& alg = default_registry().implementation(name);
    if (name == "dns") {
      EXPECT_FALSE(alg.applicable(8, 1));  // DNS needs p >= n^2
    } else if (name == "cannon25d") {
      EXPECT_FALSE(alg.applicable(8, 1));  // replication needs p >= c^3 = 8
      EXPECT_TRUE(alg.applicable(8, 8));
    } else {
      EXPECT_TRUE(alg.applicable(8, 1)) << name;
    }
  }
}

}  // namespace
}  // namespace hpmm
