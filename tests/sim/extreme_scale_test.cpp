// Extreme-scale engine coverage (DESIGN.md §12): sparse exchange rounds at
// p ~ 10^5-10^6 virtual processors, seeded trace sampling and full runs at
// p = 2^18. That every capture mode leaves the simulated run unchanged is
// pinned by capture_identity_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "algorithms/dns.hpp"
#include "algorithms/gk.hpp"
#include "matrix/generate.hpp"
#include "matrix/kernels.hpp"
#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

MachineParams test_params(double ts = 10.0, double tw = 2.0) {
  MachineParams m;
  m.t_s = ts;
  m.t_w = tw;
  return m;
}

Matrix payload(std::size_t words) { return Matrix(1, words); }

// ----- sparse rounds at large p ---------------------------------------------

TEST(ExtremeScale, MillionProcessorExchangeTouchesOnlyParticipants) {
  // 2^20 processors; a round between four of them must behave exactly like
  // the same round on a tiny machine (and complete immediately — the engine
  // may not iterate over all p per round).
  const unsigned dim = 20;
  const ProcId p = ProcId{1} << dim;
  SimMachine m(std::make_shared<Hypercube>(dim), test_params());
  ASSERT_EQ(m.procs(), std::size_t{1} << dim);

  const ProcId hi = p - 1, lo = 0;
  m.compute(hi, 100.0);
  std::vector<Message> msgs;
  msgs.emplace_back(hi, hi ^ 1u, 7, payload(5));
  msgs.emplace_back(lo, lo + 1, 8, payload(3));
  m.exchange(std::move(msgs));

  // cost = t_s + t_w * words, started at each sender's clock.
  EXPECT_DOUBLE_EQ(m.clock(hi), 100.0 + 10.0 + 2.0 * 5);
  EXPECT_DOUBLE_EQ(m.clock(hi ^ 1u), 100.0 + 10.0 + 2.0 * 5);
  EXPECT_DOUBLE_EQ(m.clock(lo), 10.0 + 2.0 * 3);
  EXPECT_DOUBLE_EQ(m.clock(lo + 1), 10.0 + 2.0 * 3);
  EXPECT_DOUBLE_EQ(m.clock(p / 2), 0.0);  // bystanders untouched

  EXPECT_EQ(m.pending_messages(), 2u);
  EXPECT_TRUE(m.has_message(hi ^ 1u, 7));
  const Message got = m.receive(hi ^ 1u, 7);
  EXPECT_EQ(got.src, hi);
  EXPECT_EQ(got.words(), 5u);
  EXPECT_EQ(m.receive(lo + 1, 8).words(), 3u);
  EXPECT_EQ(m.pending_messages(), 0u);
  m.assert_clean_run();

  // The per-processor footprint must stay flat (arena inbox + scratch, no
  // per-pid deques): a few hundred bytes, not kilobytes.
  const std::uint64_t bytes = m.approx_footprint_bytes();
  EXPECT_GT(bytes, std::uint64_t{0});
  EXPECT_LT(bytes / m.procs(), std::uint64_t{512})
      << "footprint " << bytes << " bytes for p = " << m.procs();
}

TEST(ExtremeScale, LargePidStatsAndCountersUse64BitMath) {
  // Indices and counters near the top of the pid range must not wrap.
  const unsigned dim = 20;
  const ProcId p = ProcId{1} << dim;
  SimMachine m(std::make_shared<Hypercube>(dim), test_params());
  const ProcId top = p - 1;
  m.note_alloc(top, std::uint64_t{1} << 33);  // > 2^32 words on one pid
  EXPECT_EQ(m.stats(top).peak_words_stored, std::uint64_t{1} << 33);
  m.note_free(top, std::uint64_t{1} << 33);
  EXPECT_EQ(m.stats(top).words_stored, 0u);
  std::vector<Message> msgs;
  msgs.emplace_back(top, top ^ (p >> 1), 1, payload(2));
  m.exchange(std::move(msgs));
  EXPECT_EQ(m.stats(top).messages_sent, 1u);
  // Hypercube distance between top and its far neighbour is one bit.
  EXPECT_EQ(m.topology().hops(top, top ^ (p >> 1)), 1u);
  (void)m.receive(top ^ (p >> 1), 1);
  m.assert_clean_run();
}

// ----- seeded trace sampling ------------------------------------------------

std::vector<TraceEvent> traced_run(double sample, std::uint64_t seed) {
  MachineParams mp = test_params();
  mp.trace = true;
  mp.trace_sample = sample;
  mp.trace_sample_seed = seed;
  SimMachine m(std::make_shared<Hypercube>(4u), mp);
  for (ProcId pid = 0; pid < 16; ++pid) m.compute(pid, 10.0 + pid);
  std::vector<Message> msgs;
  for (ProcId pid = 0; pid < 8; ++pid) msgs.emplace_back(pid, pid + 8, 1, payload(4));
  m.exchange(std::move(msgs));
  for (ProcId pid = 8; pid < 16; ++pid) (void)m.receive(pid, 1);
  m.synchronize();
  return m.trace().events();
}

TEST(ExtremeScale, TraceSampleOneRecordsEveryoneAndZeroRecordsNoOne) {
  const auto all = traced_run(1.0, 0);
  const auto none = traced_run(0.0, 0);
  EXPECT_FALSE(all.empty());
  EXPECT_TRUE(none.empty());
  std::set<ProcId> pids;
  for (const auto& e : all) pids.insert(e.pid);
  EXPECT_EQ(pids.size(), 16u);  // full trace covers every processor
}

TEST(ExtremeScale, TraceSamplingIsAPerProcessorSubsetAndSeedStable) {
  const auto all = traced_run(1.0, 5);
  const auto half = traced_run(0.5, 5);
  const auto half_again = traced_run(0.5, 5);
  // Deterministic in the seed.
  ASSERT_EQ(half.size(), half_again.size());
  std::set<ProcId> sampled;
  for (const auto& e : half) sampled.insert(e.pid);
  EXPECT_GT(sampled.size(), 0u);
  EXPECT_LT(sampled.size(), 16u);
  // A sampled processor's timeline is complete: exactly the events the full
  // trace has for that pid, in the same order with the same timestamps.
  std::vector<TraceEvent> expected;
  for (const auto& e : all) {
    if (sampled.count(e.pid)) expected.push_back(e);
  }
  ASSERT_EQ(half.size(), expected.size());
  for (std::size_t i = 0; i < half.size(); ++i) {
    EXPECT_EQ(half[i].pid, expected[i].pid);
    EXPECT_EQ(half[i].start, expected[i].start);
    EXPECT_EQ(half[i].end, expected[i].end);
    EXPECT_EQ(static_cast<int>(half[i].kind),
              static_cast<int>(expected[i].kind));
  }
  // A different seed selects a different (still deterministic) subset in
  // general; at minimum it must stay a valid subset of the full trace.
  const auto other = traced_run(0.5, 1234);
  std::set<ProcId> other_sampled;
  for (const auto& e : other) other_sampled.insert(e.pid);
  EXPECT_GT(other_sampled.size(), 0u);
  EXPECT_LT(other_sampled.size(), 16u);
}

// ----- full algorithm runs at p >= 10^5 -------------------------------------

TEST(ExtremeScale, GkRunsAtQuarterMillionProcessors) {
  // n = 64, p = n^3 = 2^18: every processor holds a 1x1 block — the paper's
  // finest-grain GK operating point, far beyond what the dense engine could
  // hold. Closed-form accounting: the n^3 multiply-adds partition exactly.
  const std::size_t n = 64;
  const std::size_t p = std::size_t{1} << 18;
  Rng rng(42);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  MachineParams mp = machines::ncube2();
  mp.metrics_mode = MetricsMode::kAggregate;
  mp.traffic_capture = TrafficCapture::kOff;
  const MatmulResult got = GkAlgorithm().run(a, b, p, mp);
  EXPECT_EQ(got.report.p, p);
  EXPECT_EQ(got.report.total_flops, static_cast<std::uint64_t>(n) * n * n);
  EXPECT_GT(got.report.t_parallel, 0.0);
  // Engine self-telemetry survives aggregate capture even at this scale:
  // the arena and event-loop gauges are O(1) extra state.
  EXPECT_GT(got.report.engine.events, 0u);
  EXPECT_GT(got.report.engine.arena_bytes, 0u);
  // Arena slots track peak concurrent messages, not p — the whole point of
  // the slab design is that a quarter-million processors don't cost a
  // quarter-million inbox allocations.
  EXPECT_GT(got.report.engine.inbox_slots, 0u);
  EXPECT_LT(got.report.engine.inbox_slots, p);
  const Gauge* arena = got.report.metrics.find_gauge("engine.arena.bytes");
  ASSERT_NE(arena, nullptr);
  EXPECT_DOUBLE_EQ(arena->value(),
                   static_cast<double>(got.report.engine.arena_bytes));
  EXPECT_NE(got.report.metrics.find_gauge("engine.events.virtual_rate"),
            nullptr);
  const Matrix expect = multiply(a, b);
  EXPECT_LE(max_abs_diff(got.c, expect), 1e-12 * static_cast<double>(n));
}

TEST(ExtremeScale, DnsRunsAtQuarterMillionProcessors) {
  const std::size_t n = 64;
  const std::size_t p = std::size_t{1} << 18;  // = n^3, 1-element operations
  Rng rng(42);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  MachineParams mp = machines::ncube2();
  mp.metrics_mode = MetricsMode::kAggregate;
  mp.traffic_capture = TrafficCapture::kOff;
  const MatmulResult got = DnsAlgorithm().run(a, b, p, mp);
  EXPECT_EQ(got.report.p, p);
  EXPECT_EQ(got.report.total_flops, static_cast<std::uint64_t>(n) * n * n);
  const Matrix expect = multiply(a, b);
  EXPECT_LE(max_abs_diff(got.c, expect), 1e-12 * static_cast<double>(n));
}

}  // namespace
}  // namespace hpmm
