#include "sim/collectives.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "topology/hypercube.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

constexpr double kTs = 10.0;
constexpr double kTw = 2.0;

MachineParams test_params() {
  MachineParams m;
  m.t_s = kTs;
  m.t_w = kTw;
  return m;
}

SimMachine make_machine(unsigned dim) {
  return SimMachine(std::make_shared<Hypercube>(dim), test_params());
}

std::vector<ProcId> iota_group(std::size_t g) {
  std::vector<ProcId> out(g);
  std::iota(out.begin(), out.end(), 0u);
  return out;
}

Matrix stamped(std::size_t words, double value) {
  Matrix m(1, words);
  m.fill(value);
  return m;
}

double msg_cost(std::size_t words) { return kTs + kTw * static_cast<double>(words); }

// ---- broadcast_binomial ----------------------------------------------------

TEST(BroadcastBinomial, DeliversPayloadToAll) {
  auto m = make_machine(3);
  const auto group = iota_group(8);
  const auto result = broadcast_binomial(m, group, 0, 1, stamped(4, 3.5));
  ASSERT_EQ(result.size(), 8u);
  for (const auto& copy : result) {
    ASSERT_EQ(copy.size(), 4u);
    EXPECT_EQ(copy(0, 0), 3.5);
  }
  EXPECT_EQ(m.pending_messages(), 0u);
}

TEST(BroadcastBinomial, CostIsLogGMessages) {
  auto m = make_machine(3);
  const auto group = iota_group(8);
  broadcast_binomial(m, group, 0, 1, stamped(4, 1.0));
  // (t_s + t_w m) log2 8 = 18 * 3 on the critical path.
  EXPECT_DOUBLE_EQ(m.time(), 3.0 * msg_cost(4));
}

TEST(BroadcastBinomial, NonZeroRoot) {
  auto m = make_machine(3);
  const auto group = iota_group(8);
  const auto result = broadcast_binomial(m, group, 5, 1, stamped(2, -1.0));
  for (const auto& copy : result) EXPECT_EQ(copy(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.time(), 3.0 * msg_cost(2));
}

TEST(BroadcastBinomial, NonPowerOfTwoGroup) {
  auto m = make_machine(3);
  const auto group = std::vector<ProcId>{0, 1, 2, 3, 4, 5};
  const auto result = broadcast_binomial(m, group, 2, 1, stamped(1, 9.0));
  ASSERT_EQ(result.size(), 6u);
  for (const auto& copy : result) EXPECT_EQ(copy(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(m.time(), 3.0 * msg_cost(1));  // ceil(log2 6) = 3 rounds
}

TEST(BroadcastBinomial, SingletonGroupIsFree) {
  auto m = make_machine(2);
  const std::vector<ProcId> group{2};
  const auto result = broadcast_binomial(m, group, 0, 1, stamped(3, 4.0));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_DOUBLE_EQ(m.time(), 0.0);
}

TEST(BroadcastBinomial, SubcubeGroupUsesPhysicalLinksOnly) {
  // Group = an ascending subcube; verify by running on a store-and-forward
  // machine, where multi-hop sends would be visibly more expensive.
  auto params = test_params();
  params.routing = Routing::kStoreAndForward;
  SimMachine m(std::make_shared<Hypercube>(4), params);
  const std::vector<ProcId> group{8, 9, 10, 11, 12, 13, 14, 15};
  broadcast_binomial(m, group, 0, 1, stamped(2, 1.0));
  EXPECT_DOUBLE_EQ(m.time(), 3.0 * msg_cost(2));  // every hop is one link
}

// ---- reduce_binomial ---------------------------------------------------------

TEST(ReduceBinomial, SumsContributions) {
  auto m = make_machine(3);
  const auto group = iota_group(8);
  std::vector<Matrix> contribs;
  for (std::size_t i = 0; i < 8; ++i) contribs.push_back(stamped(4, double(i)));
  const Matrix sum = reduce_binomial(m, group, 0, 1, std::move(contribs));
  EXPECT_EQ(sum(0, 0), 28.0);  // 0+1+...+7
  EXPECT_DOUBLE_EQ(m.time(), 3.0 * msg_cost(4));
}

TEST(ReduceBinomial, NonZeroRoot) {
  auto m = make_machine(2);
  const auto group = iota_group(4);
  std::vector<Matrix> contribs;
  for (std::size_t i = 0; i < 4; ++i) contribs.push_back(stamped(1, 1.0));
  const Matrix sum = reduce_binomial(m, group, 3, 1, std::move(contribs));
  EXPECT_EQ(sum(0, 0), 4.0);
}

TEST(ReduceBinomial, AddCostCharged) {
  auto m = make_machine(1);
  const auto group = iota_group(2);
  std::vector<Matrix> contribs{stamped(8, 1.0), stamped(8, 2.0)};
  reduce_binomial(m, group, 0, 1, std::move(contribs), 0.5);
  // One message (cost 26) plus 0.5 * 8 = 4 add time at the root.
  EXPECT_DOUBLE_EQ(m.clock(0), msg_cost(8) + 4.0);
}

TEST(ReduceBinomial, ContributionCountValidated) {
  auto m = make_machine(2);
  const auto group = iota_group(4);
  std::vector<Matrix> contribs(3, stamped(1, 0.0));
  EXPECT_THROW(reduce_binomial(m, group, 0, 1, std::move(contribs)),
               PreconditionError);
}

// ---- all_to_all_ring ---------------------------------------------------------

TEST(AllToAllRing, EveryoneGetsEverythingInOrder) {
  auto m = make_machine(2);
  const auto group = iota_group(4);
  std::vector<Matrix> contribs;
  for (std::size_t i = 0; i < 4; ++i) contribs.push_back(stamped(3, double(i + 1)));
  const auto result = all_to_all_ring(m, group, 1, std::move(contribs));
  ASSERT_EQ(result.size(), 4u);
  for (std::size_t pos = 0; pos < 4; ++pos) {
    ASSERT_EQ(result[pos].size(), 4u);
    for (std::size_t origin = 0; origin < 4; ++origin) {
      EXPECT_EQ(result[pos][origin](0, 0), double(origin + 1))
          << "pos=" << pos << " origin=" << origin;
    }
  }
}

TEST(AllToAllRing, CostIsGMinusOneMessages) {
  auto m = make_machine(3);
  const auto group = iota_group(8);
  std::vector<Matrix> contribs(8, stamped(5, 1.0));
  all_to_all_ring(m, group, 1, std::move(contribs));
  EXPECT_DOUBLE_EQ(m.time(), 7.0 * msg_cost(5));
}

TEST(AllToAllRing, SingletonGroup) {
  auto m = make_machine(1);
  const std::vector<ProcId> group{1};
  std::vector<Matrix> contribs;
  contribs.push_back(stamped(2, 6.0));
  const auto result = all_to_all_ring(m, group, 1, std::move(contribs));
  EXPECT_EQ(result[0][0](0, 0), 6.0);
  EXPECT_DOUBLE_EQ(m.time(), 0.0);
}

// ---- all_to_all_recursive_doubling ------------------------------------------

TEST(AllToAllRecursiveDoubling, EveryoneGetsEverything) {
  auto m = make_machine(3);
  const auto group = iota_group(8);
  std::vector<Matrix> contribs;
  for (std::size_t i = 0; i < 8; ++i) contribs.push_back(stamped(2, double(i)));
  const auto result = all_to_all_recursive_doubling(m, group, 1, std::move(contribs));
  for (std::size_t pos = 0; pos < 8; ++pos) {
    for (std::size_t origin = 0; origin < 8; ++origin) {
      EXPECT_EQ(result[pos][origin](0, 0), double(origin));
    }
  }
}

TEST(AllToAllRecursiveDoubling, CostMatchesClosedForm) {
  auto m = make_machine(3);
  const auto group = iota_group(8);
  const std::size_t words = 4;
  std::vector<Matrix> contribs(8, stamped(words, 1.0));
  all_to_all_recursive_doubling(m, group, 1, std::move(contribs));
  // t_s log g + t_w m (g - 1): message doubles each round.
  const double expect = kTs * 3 + kTw * static_cast<double>(words) * 7;
  EXPECT_DOUBLE_EQ(m.time(), expect);
}

TEST(AllToAllRecursiveDoubling, UnpackingRestoresEachOriginsShape) {
  // Each round packs the gathered blocks into one payload; receivers must
  // get every block back with its own shape and elements.
  auto m = make_machine(2);
  const auto group = iota_group(4);
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 3}, {2, 2}, {3, 1}, {1, 1}};
  const auto block_of = [&](std::size_t origin) {
    Matrix b(shapes[origin].first, shapes[origin].second);
    for (std::size_t k = 0; k < b.size(); ++k) {
      b.data()[k] = double(10 * origin + k);
    }
    return b;
  };
  std::vector<Matrix> contribs;
  for (std::size_t i = 0; i < 4; ++i) contribs.push_back(block_of(i));
  const auto result =
      all_to_all_recursive_doubling(m, group, 1, std::move(contribs));
  for (std::size_t pos = 0; pos < 4; ++pos) {
    for (std::size_t origin = 0; origin < 4; ++origin) {
      EXPECT_EQ(result[pos][origin], block_of(origin))
          << "pos " << pos << " origin " << origin;
    }
  }
  // Words still add up block by block: round 1 moves each member's own
  // block, round 2 the pair it holds ({0,1} and {2,3} hold 7 and 4 words).
  EXPECT_EQ(m.metrics().find_counter("sim.words")->value(),
            3u + 4u + 3u + 1u + 2u * 7u + 2u * 4u);
  m.assert_clean_run();
}

TEST(AllToAllRecursiveDoubling, StaleDuplicateIsUnpackedOnlyAsFarAsItsPayload) {
  // Unreliable delivery queues a duplicate ahead of each original, and all
  // rounds share one tag: round 2 therefore receives round 1's original,
  // which holds one block where two are expected. Unpacking must stop at
  // the end of that payload.
  auto plan = std::make_shared<FaultPlan>();
  plan->duplicate_prob = 1.0;
  plan->reliable = false;
  MachineParams mp = test_params();
  mp.faults = plan;
  SimMachine m(std::make_shared<Hypercube>(2u), mp);
  const auto group = iota_group(4);
  std::vector<Matrix> contribs;
  for (std::size_t i = 0; i < 4; ++i) contribs.push_back(stamped(3, double(i)));
  const auto result =
      all_to_all_recursive_doubling(m, group, 1, std::move(contribs));
  for (std::size_t pos = 0; pos < 4; ++pos) {
    SCOPED_TRACE(pos);
    EXPECT_EQ(result[pos][pos], stamped(3, double(pos)));
    EXPECT_EQ(result[pos][pos ^ 1], stamped(3, double(pos ^ 1)));
    // The stale block is the round-1 partner's, filed under the first
    // origin the round-2 partner would have sent; nothing else arrives.
    EXPECT_EQ(result[pos][pos ^ 2], stamped(3, double(pos ^ 1)));
    EXPECT_EQ(result[pos][pos ^ 3].size(), 0u);
  }
  EXPECT_EQ(m.fault_stats().duplicates_delivered, 8u);
}

TEST(AllToAllRecursiveDoubling, RequiresPow2Group) {
  auto m = make_machine(3);
  const auto group = std::vector<ProcId>{0, 1, 2};
  std::vector<Matrix> contribs(3, stamped(1, 1.0));
  EXPECT_THROW(all_to_all_recursive_doubling(m, group, 1, std::move(contribs)),
               PreconditionError);
}

// ---- reduce_scatter_halving --------------------------------------------------

TEST(ReduceScatterHalving, SlicesOfTheSum) {
  auto m = make_machine(2);
  const auto group = iota_group(4);
  // Contribution from member i: 8x2 matrix with every entry i+1.
  std::vector<Matrix> contribs;
  for (std::size_t i = 0; i < 4; ++i) {
    contribs.push_back(Matrix(8, 2, double(i + 1)));
  }
  const auto slices = reduce_scatter_halving(m, group, 1, std::move(contribs));
  ASSERT_EQ(slices.size(), 4u);
  for (std::size_t pos = 0; pos < 4; ++pos) {
    ASSERT_EQ(slices[pos].rows(), 2u);  // 8 rows / 4 members
    ASSERT_EQ(slices[pos].cols(), 2u);
    for (double v : slices[pos].data()) EXPECT_EQ(v, 10.0);  // 1+2+3+4
  }
}

TEST(ReduceScatterHalving, DistinctRowsLandAtDistinctMembers) {
  auto m = make_machine(2);
  const auto group = iota_group(4);
  std::vector<Matrix> contribs;
  for (std::size_t i = 0; i < 4; ++i) {
    Matrix c(4, 1);
    for (std::size_t r = 0; r < 4; ++r) c(r, 0) = double(r);  // row index
    contribs.push_back(std::move(c));
  }
  const auto slices = reduce_scatter_halving(m, group, 1, std::move(contribs));
  for (std::size_t pos = 0; pos < 4; ++pos) {
    // Member pos holds row `pos` of the 4-way sum: value 4 * pos.
    EXPECT_EQ(slices[pos](0, 0), 4.0 * double(pos));
  }
}

TEST(ReduceScatterHalving, CostMatchesClosedForm) {
  auto m = make_machine(3);
  const auto group = iota_group(8);
  const std::size_t rows = 64, cols = 1;
  std::vector<Matrix> contribs(8, Matrix(rows, cols, 1.0));
  reduce_scatter_halving(m, group, 1, std::move(contribs));
  // sum_{s=1..3} (t_s + t_w m / 2^s) = 3 t_s + t_w m (1 - 1/8)
  const double expect = 3 * kTs + kTw * 64.0 * (1.0 - 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(m.time(), expect);
}

TEST(ReduceScatterHalving, Validation) {
  auto m = make_machine(2);
  std::vector<Matrix> three(3, Matrix(4, 1));
  EXPECT_THROW(
      reduce_scatter_halving(m, std::vector<ProcId>{0, 1, 2}, 1, std::move(three)),
      PreconditionError);  // non-pow2 group
  std::vector<Matrix> bad_rows(4, Matrix(6, 1));
  EXPECT_THROW(reduce_scatter_halving(m, iota_group(4), 1, std::move(bad_rows)),
               PreconditionError);  // 4 does not divide 6
}

// ---- Johnsson-Ho (modeled) ---------------------------------------------------

TEST(JohnssonHo, ClosedFormValue) {
  MachineParams p = test_params();
  const double words = 80.0;
  const double logg = 3.0;
  const double packets = std::sqrt(p.t_s * words / (p.t_w * logg));
  const double expect = p.t_s * logg + p.t_w * words + 2.0 * p.t_w * logg * packets;
  EXPECT_DOUBLE_EQ(johnsson_ho_broadcast_time(p, words, 8), expect);
}

TEST(JohnssonHo, DegeneratePacketGuard) {
  MachineParams p;
  p.t_s = 0.001;  // tiny startup -> packet count would fall below 1
  p.t_w = 10.0;
  const double t = johnsson_ho_broadcast_time(p, 4.0, 8);
  // With packets clamped to 1: t_s log g + t_w m + 2 t_w log g.
  EXPECT_DOUBLE_EQ(t, 0.001 * 3 + 40.0 + 2.0 * 10.0 * 3);
}

TEST(JohnssonHo, FasterThanBinomialForLargeMessages) {
  MachineParams p = test_params();
  const double words = 10000.0;
  const double binomial = (p.t_s + p.t_w * words) * 4;  // log 16 rounds
  EXPECT_LT(johnsson_ho_broadcast_time(p, words, 16), binomial);
}

TEST(JohnssonHo, TrivialCases) {
  MachineParams p = test_params();
  EXPECT_DOUBLE_EQ(johnsson_ho_broadcast_time(p, 100.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(johnsson_ho_broadcast_time(p, 0.0, 8), p.t_s * 3);
}

// ---- modeled collectives -----------------------------------------------------

TEST(BroadcastModeled, ReplicatesAndCharges) {
  auto m = make_machine(2);
  const auto group = iota_group(4);
  const auto result = broadcast_modeled(m, group, 1, stamped(2, 7.0), 33.0);
  ASSERT_EQ(result.size(), 4u);
  for (const auto& copy : result) EXPECT_EQ(copy(0, 1), 7.0);
  for (ProcId pid = 0; pid < 4; ++pid) EXPECT_DOUBLE_EQ(m.clock(pid), 33.0);
}

TEST(AllToAllModeled, ReplicatesAndCharges) {
  auto m = make_machine(1);
  const auto group = iota_group(2);
  std::vector<Matrix> contribs{stamped(1, 1.0), stamped(1, 2.0)};
  const auto result = all_to_all_modeled(m, group, std::move(contribs), 5.0);
  EXPECT_EQ(result[0][1](0, 0), 2.0);
  EXPECT_EQ(result[1][0](0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.time(), 5.0);
}

}  // namespace
}  // namespace hpmm
