// Heap budget of the simulator's per-message path: a passing check, a lookup
// of an existing metric, an unused traffic table and a warm exchange() +
// receive() round allocate nothing, and a warm broadcast allocates only its
// payload copies and its own bookkeeping. The binary replaces the global
// operator new with a counting one, so it is built only without sanitizers
// (which replace it themselves).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "machine/params.hpp"
#include "sim/collectives.hpp"
#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hpmm {
namespace {

template <class F>
std::size_t allocations_during(F&& f) {
  const std::size_t before = g_allocations.load();
  f();
  return g_allocations.load() - before;
}

TEST(Alloc, CountingOperatorNewSeesAllocations) {
  // Guards the tests below against a counter that never moves: a string past
  // the small-string capacity is what each check used to build.
  std::size_t size = 0;
  EXPECT_EQ(allocations_during([&] { size = std::string(40, 'x').size(); }),
            1u);
  EXPECT_EQ(size, 40u);
}

TEST(Alloc, PassingChecksAllocateNothing) {
  // Both literals are well past std::string's small-string capacity.
  EXPECT_EQ(allocations_during([] {
              require(true, "a precondition message longer than the SSO");
              ensure(true, "an invariant message longer than the SSO");
            }),
            0u);
}

TEST(Alloc, LookingUpAnExistingMetricAllocatesNothing) {
  MetricsRegistry reg;
  reg.counter("collective.broadcast_binomial");
  reg.gauge("engine.events.virtual_rate");
  EXPECT_EQ(allocations_during([&] {
              reg.counter("collective.broadcast_binomial").add();
              reg.gauge("engine.events.virtual_rate").set(1.0);
              (void)reg.find_counter("collective.broadcast_binomial");
              (void)reg.find_histogram("collective.not_registered");
            }),
            0u);
}

TEST(Alloc, AnUnusedTrafficTableAllocatesNothing) {
  // Every SimMachine builds one, also with --traffic=off.
  EXPECT_EQ(allocations_during([] {
              TrafficMatrix t(1024);
              t.add(1, 2, 0);
              (void)t.words(1, 2);
              (void)t.busiest();
              t = TrafficMatrix(1024);
            }),
            0u);
}

class WarmExchange : public ::testing::TestWithParam<MetricsMode> {};

// The e2e probe's round: 256 one-word messages between neighbouring pids
// spread over p = 1024. Full capture keeps per-pid chains, phase cells,
// histograms and the traffic matrix; aggregate keeps phase totals.
TEST_P(WarmExchange, RoundAllocatesNothing) {
  constexpr unsigned kDim = 10;
  constexpr std::size_t kMsgs = 256;
  MachineParams mp = machines::ncube2();
  mp.metrics_mode = GetParam();
  SimMachine m(std::make_shared<Hypercube>(kDim), mp);
  const std::size_t stride = m.procs() / kMsgs;
  const auto make_round = [&] {
    std::vector<Message> msgs;
    msgs.reserve(kMsgs);
    for (std::size_t i = 0; i < kMsgs; ++i) {
      const auto src = static_cast<ProcId>(i * stride);
      msgs.emplace_back(src, src ^ 1u, 1, Matrix(1, 1));
    }
    return msgs;
  };
  const auto run_round = [&](std::vector<Message> msgs) {
    m.exchange(std::move(msgs));
    for (std::size_t i = 0; i < kMsgs; ++i) {
      (void)m.receive(static_cast<ProcId>(i * stride) ^ 1u, 1);
    }
  };
  // Warm-up: the first rounds size the scratch rows, chains and inbox arena.
  for (int round = 0; round < 3; ++round) run_round(make_round());
  auto msgs = make_round();  // payloads are the caller's, not the engine's
  EXPECT_EQ(allocations_during([&] { run_round(std::move(msgs)); }), 0u);
  EXPECT_EQ(m.pending_messages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Capture, WarmExchange,
                         ::testing::Values(MetricsMode::kAggregate,
                                           MetricsMode::kFull),
                         [](const auto& info) {
                           return info.param == MetricsMode::kAggregate
                                      ? "Aggregate"
                                      : "Full";
                         });

class WarmBroadcast : public ::testing::TestWithParam<MetricsMode> {};

// A 4x4 block broadcast by binomial tree over 64 members. Each of the 63
// messages carries its own copy of the block, held inline; the other 8
// allocations are the collective's bookkeeping: the result vector, the
// `have` flags and one message vector for each of the six rounds.
TEST_P(WarmBroadcast, AllocatesOnlyPayloadCopiesAndBookkeeping) {
  MachineParams mp = machines::ncube2();
  mp.metrics_mode = GetParam();
  SimMachine m(std::make_shared<Hypercube>(6u), mp);
  std::vector<ProcId> group(m.procs());
  std::iota(group.begin(), group.end(), ProcId{0});
  const Matrix block(4, 4, 1.0);
  // Warm-up: the first broadcasts size the scratch rows, chains, inbox
  // arena and traffic table.
  for (int warm = 0; warm < 3; ++warm) {
    (void)broadcast_binomial(m, group, 0, 1, block);
  }
  Matrix payload = block;  // the caller's copy, made before counting
  EXPECT_EQ(allocations_during([&] {
              (void)broadcast_binomial(m, group, 0, 1, std::move(payload));
            }),
            63u + 8u);
  EXPECT_EQ(m.pending_messages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Capture, WarmBroadcast,
                         ::testing::Values(MetricsMode::kAggregate,
                                           MetricsMode::kFull),
                         [](const auto& info) {
                           return info.param == MetricsMode::kAggregate
                                      ? "Aggregate"
                                      : "Full";
                         });

}  // namespace
}  // namespace hpmm
