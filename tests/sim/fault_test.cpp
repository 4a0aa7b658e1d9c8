#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

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

std::shared_ptr<FaultPlan> make_plan() { return std::make_shared<FaultPlan>(); }

TEST(FaultPlan, DefaultPlanIsInactive) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
}

TEST(FaultPlan, AnyProbabilityActivates) {
  FaultPlan plan;
  plan.drop_prob = 0.01;
  EXPECT_TRUE(plan.active());
  plan = FaultPlan{};
  plan.corrupt_prob = 0.5;
  EXPECT_TRUE(plan.active());
  plan = FaultPlan{};
  plan.delay_prob = 1.0;
  EXPECT_TRUE(plan.active());
}

TEST(FaultPlan, StragglersAndFailstopsActivate) {
  FaultPlan plan;
  plan.stragglers.push_back({2, 3.0});
  EXPECT_TRUE(plan.active());
  plan = FaultPlan{};
  plan.failstops.push_back({0, 100.0});
  EXPECT_TRUE(plan.active());
}

TEST(FaultPlan, UnitFactorStragglerIsNotAFault) {
  FaultPlan plan;
  plan.stragglers.push_back({2, 1.0});
  EXPECT_FALSE(plan.active());
}

TEST(FaultPlan, AbftAloneDoesNotActivate) {
  // ABFT changes what algorithms send, not what the machine does to
  // messages, so it must not force the injector (and its costs) into being.
  FaultPlan plan;
  plan.abft = AbftMode::kCorrect;
  EXPECT_FALSE(plan.active());
}

TEST(FaultInjector, RejectsMalformedPlans) {
  auto bad_prob = make_plan();
  bad_prob->drop_prob = 1.5;
  EXPECT_THROW(FaultInjector{bad_prob}, PreconditionError);

  auto negative = make_plan();
  negative->corrupt_prob = -0.1;
  EXPECT_THROW(FaultInjector{negative}, PreconditionError);

  auto slow = make_plan();
  slow->stragglers.push_back({0, 0.5});  // faster-than-nominal is not a fault
  EXPECT_THROW(FaultInjector{slow}, PreconditionError);

  auto rto = make_plan();
  rto->rto_factor = 0.0;
  EXPECT_THROW(FaultInjector{rto}, PreconditionError);
}

TEST(FaultInjector, FateIsDeterministic) {
  auto plan = make_plan();
  plan->seed = 7;
  plan->drop_prob = 0.3;
  plan->duplicate_prob = 0.2;
  plan->corrupt_prob = 0.1;
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  const Message m(0, 1, 4, payload(16));
  for (std::uint64_t round = 1; round <= 40; ++round) {
    for (unsigned attempt = 0; attempt < 3; ++attempt) {
      const MessageFate fa = a.fate(m, round, attempt, 42.0);
      const MessageFate fb = b.fate(m, round, attempt, 42.0);
      EXPECT_EQ(fa.dropped, fb.dropped);
      EXPECT_EQ(fa.duplicated, fb.duplicated);
      EXPECT_EQ(fa.corrupted, fb.corrupted);
      EXPECT_DOUBLE_EQ(fa.delay, fb.delay);
    }
  }
}

TEST(FaultInjector, FateDependsOnSeed) {
  auto p1 = make_plan();
  p1->seed = 1;
  p1->drop_prob = 0.5;
  auto p2 = std::make_shared<FaultPlan>(*p1);
  p2->seed = 2;
  const FaultInjector a(p1), b(p2);
  const Message m(0, 1, 4, payload(16));
  int differing = 0;
  for (std::uint64_t round = 1; round <= 100; ++round) {
    if (a.fate(m, round, 0, 1.0).dropped != b.fate(m, round, 0, 1.0).dropped) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, EmpiricalDropRateTracksPlan) {
  auto plan = make_plan();
  plan->seed = 99;
  plan->drop_prob = 0.25;
  const FaultInjector inj(plan);
  int drops = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    // Vary round and endpoints so each draw is an independent hash.
    const Message m(static_cast<ProcId>(i % 16),
                    static_cast<ProcId>((i + 1) % 16), i % 7, payload(4));
    if (inj.fate(m, static_cast<std::uint64_t>(i / 16 + 1), 0, 1.0).dropped) {
      ++drops;
    }
  }
  const double rate = static_cast<double>(drops) / trials;
  EXPECT_NEAR(rate, 0.25, 0.03);
}

TEST(FaultInjector, DelayScalesWithBaseCost) {
  auto plan = make_plan();
  plan->delay_prob = 1.0;
  plan->delay_factor = 2.5;
  const FaultInjector inj(plan);
  const Message m(0, 1, 1, payload(4));
  const MessageFate fate = inj.fate(m, 1, 0, 40.0);
  EXPECT_DOUBLE_EQ(fate.delay, 100.0);
}

TEST(FaultInjector, SlowdownAndFailTimeLookups) {
  auto plan = make_plan();
  plan->stragglers.push_back({3, 2.0});
  plan->failstops.push_back({1, 500.0});
  const FaultInjector inj(plan);
  EXPECT_DOUBLE_EQ(inj.slowdown(3), 2.0);
  EXPECT_DOUBLE_EQ(inj.slowdown(0), 1.0);
  ASSERT_TRUE(inj.fail_time(1).has_value());
  EXPECT_DOUBLE_EQ(*inj.fail_time(1), 500.0);
  EXPECT_FALSE(inj.fail_time(3).has_value());
}

TEST(CorruptMessageWord, FlipsExactlyOneElement) {
  Message m(0, 1, 1, payload(8));
  for (std::size_t i = 0; i < 8; ++i) m.payload(0, i) = double(i + 1);
  Message orig = m;
  corrupt_message_word(m, 5);
  int changed = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    if (m.payload(0, i) != orig.payload(0, i)) ++changed;
  }
  EXPECT_EQ(changed, 1);
  EXPECT_NE(m.payload(0, 5), orig.payload(0, 5));
  // Mantissa-bit flip: the value stays finite (no NaN/Inf surprises).
  EXPECT_TRUE(std::isfinite(m.payload(0, 5)));
}

TEST(SimMachineFaults, StragglerSlowsComputeByFactor) {
  auto plan = make_plan();
  plan->stragglers.push_back({1, 3.0});
  MachineParams mp = test_params();
  mp.faults = plan;
  SimMachine m(std::make_shared<Hypercube>(1u), mp);
  m.compute(0, 100.0);
  m.compute(1, 100.0);
  EXPECT_DOUBLE_EQ(m.clock(0), 100.0);
  EXPECT_DOUBLE_EQ(m.clock(1), 300.0);
  // flops counters record useful work, not wall-clock.
  EXPECT_EQ(m.stats(1).flops, 100u);
}

TEST(SimMachineFaults, StragglerSlowsItsSends) {
  auto plan = make_plan();
  plan->stragglers.push_back({0, 2.0});
  MachineParams mp = test_params();  // t_s=10, t_w=2
  mp.faults = plan;
  SimMachine m(std::make_shared<Hypercube>(1u), mp);
  std::vector<Message> msgs;
  msgs.emplace_back(0, 1, 1, payload(5));  // nominal cost 20, straggler x2
  m.exchange(std::move(msgs));
  EXPECT_DOUBLE_EQ(m.clock(0), 40.0);
  EXPECT_DOUBLE_EQ(m.clock(1), 40.0);
}

TEST(SimMachineFaults, FailStopRaisesOnCompute) {
  auto plan = make_plan();
  plan->failstops.push_back({0, 150.0});
  MachineParams mp = test_params();
  mp.faults = plan;
  SimMachine m(std::make_shared<Hypercube>(1u), mp);
  m.compute(0, 100.0);  // clock 100 < 150: still alive
  m.compute(0, 100.0);  // clock 200 >= 150 at the next use
  try {
    m.compute(0, 1.0);
    FAIL() << "expected ProcessorFailure";
  } catch (const ProcessorFailure& failure) {
    EXPECT_EQ(failure.pid(), 0u);
    EXPECT_DOUBLE_EQ(failure.at_time(), 150.0);
  }
}

TEST(SimMachineFaults, FailStopRaisesOnExchange) {
  auto plan = make_plan();
  plan->failstops.push_back({1, 50.0});
  MachineParams mp = test_params();
  mp.faults = plan;
  SimMachine m(std::make_shared<Hypercube>(1u), mp);
  m.compute(1, 60.0);  // push pid 1 past its fail time
  std::vector<Message> msgs;
  msgs.emplace_back(0, 1, 1, payload(5));
  EXPECT_THROW(m.exchange(std::move(msgs)), ProcessorFailure);
}

TEST(SimMachineFaults, FailStopPidOutOfRangeRejected) {
  auto plan = make_plan();
  plan->failstops.push_back({9, 50.0});
  MachineParams mp = test_params();
  mp.faults = plan;
  EXPECT_THROW(SimMachine(std::make_shared<Hypercube>(1u), mp),
               PreconditionError);
}

TEST(SimMachineFaults, DropsAreRetransmittedAndCharged) {
  auto plan = make_plan();
  plan->seed = 3;
  plan->drop_prob = 1.0;   // first attempt always drops...
  plan->max_retries = 1;   // ...so cap at one retry and make it succeed
  MachineParams mp = test_params();
  mp.faults = plan;
  SimMachine m(std::make_shared<Hypercube>(1u), mp);
  std::vector<Message> msgs;
  msgs.emplace_back(0, 1, 1, payload(5));
  // Every attempt drops and the retry budget is exhausted: the reliable
  // protocol reports the message presumed lost as an internal error.
  EXPECT_THROW(m.exchange(std::move(msgs)), InternalError);
}

TEST(SimMachineFaults, ModerateDropRateDeliversWithRetries) {
  auto plan = make_plan();
  plan->seed = 11;
  plan->drop_prob = 0.4;
  MachineParams mp = test_params();
  mp.faults = plan;
  SimMachine m(std::make_shared<Hypercube>(3u), mp);
  // Enough rounds that some transmission drops with high probability.
  for (int round = 0; round < 12; ++round) {
    std::vector<Message> msgs;
    for (ProcId src = 0; src < 8; ++src) {
      msgs.emplace_back(src, src ^ 1u, round + 1, payload(4));
    }
    m.exchange(std::move(msgs));
    for (ProcId dst = 0; dst < 8; ++dst) {
      EXPECT_TRUE(m.has_message(dst, round + 1));
      (void)m.receive(dst, round + 1);
    }
  }
  EXPECT_GT(m.fault_stats().transmissions_dropped, 0u);
  EXPECT_EQ(m.fault_stats().retransmissions,
            m.fault_stats().transmissions_dropped);
  EXPECT_EQ(m.fault_stats().messages_lost, 0u);
  m.assert_clean_run();
}

TEST(SimMachineFaults, UnreliableModeLosesMessages) {
  auto plan = make_plan();
  plan->seed = 5;
  plan->drop_prob = 1.0;
  plan->reliable = false;
  MachineParams mp = test_params();
  mp.faults = plan;
  SimMachine m(std::make_shared<Hypercube>(1u), mp);
  std::vector<Message> msgs;
  msgs.emplace_back(0, 1, 1, payload(5));
  m.exchange(std::move(msgs));
  EXPECT_FALSE(m.has_message(1, 1));
  EXPECT_EQ(m.fault_stats().messages_lost, 1u);
}

TEST(SimMachineFaults, DuplicatesAreSuppressedInReliableMode) {
  auto plan = make_plan();
  plan->seed = 2;
  plan->duplicate_prob = 1.0;
  MachineParams mp = test_params();
  mp.faults = plan;
  SimMachine m(std::make_shared<Hypercube>(1u), mp);
  std::vector<Message> msgs;
  msgs.emplace_back(0, 1, 1, payload(5));
  m.exchange(std::move(msgs));
  (void)m.receive(1, 1);
  EXPECT_FALSE(m.has_message(1, 1));  // the duplicate never reached the inbox
  EXPECT_EQ(m.fault_stats().duplicates_suppressed, 1u);
  m.assert_clean_run();
}

TEST(SimMachineFaults, ReportCarriesFaultCounters) {
  auto plan = make_plan();
  plan->seed = 11;
  plan->drop_prob = 0.4;
  MachineParams mp = test_params();
  mp.faults = plan;
  SimMachine m(std::make_shared<Hypercube>(2u), mp);
  for (int round = 0; round < 10; ++round) {
    std::vector<Message> msgs;
    for (ProcId src = 0; src < 4; ++src) {
      msgs.emplace_back(src, src ^ 1u, 1, payload(4));
    }
    m.exchange(std::move(msgs));
    for (ProcId dst = 0; dst < 4; ++dst) (void)m.receive(dst, 1);
  }
  const RunReport report = m.report("test", 4, 64.0);
  EXPECT_EQ(report.faults.retransmissions, m.fault_stats().retransmissions);
  EXPECT_GT(report.faults.retransmissions, 0u);
  EXPECT_NE(report.summary().find("faults["), std::string::npos);
}

}  // namespace
}  // namespace hpmm
