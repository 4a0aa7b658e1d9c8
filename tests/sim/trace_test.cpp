#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/registry.hpp"
#include "matrix/generate.hpp"
#include "sim/collectives.hpp"
#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace hpmm {
namespace {

MachineParams test_params() {
  MachineParams m;
  m.t_s = 10.0;
  m.t_w = 2.0;
  return m;
}

SimMachine traced_machine(unsigned dim) {
  SimMachine m(std::make_shared<Hypercube>(dim), test_params());
  m.enable_tracing();
  return m;
}

TEST(Trace, DisabledByDefault) {
  SimMachine m(std::make_shared<Hypercube>(2), test_params());
  m.compute(0, 10.0);
  EXPECT_TRUE(m.trace().empty());
}

TEST(Trace, RecordsComputeSpans) {
  auto m = traced_machine(1);
  m.compute(0, 25.0);
  m.compute(0, 5.0);
  const Trace t = m.trace();
  const auto events = t.events_of(0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEvent::Kind::kCompute);
  EXPECT_DOUBLE_EQ(events[0].start, 0.0);
  EXPECT_DOUBLE_EQ(events[0].end, 25.0);
  EXPECT_DOUBLE_EQ(events[1].start, 25.0);
  EXPECT_DOUBLE_EQ(events[1].end, 30.0);
  EXPECT_DOUBLE_EQ(t.total(0, TraceEvent::Kind::kCompute), 30.0);
}

TEST(Trace, RecordsSendAndWait) {
  auto m = traced_machine(2);
  m.compute(0, 50.0);
  std::vector<Message> msgs;
  msgs.emplace_back(0, 1, 1, Matrix(1, 5));
  m.exchange(std::move(msgs));
  const Trace t = m.trace();
  // Sender: compute then send.
  EXPECT_DOUBLE_EQ(t.total(0, TraceEvent::Kind::kSend), 20.0);
  EXPECT_DOUBLE_EQ(t.total(0, TraceEvent::Kind::kWait), 0.0);
  // Receiver: waited from 0 to arrival at 70.
  EXPECT_DOUBLE_EQ(t.total(1, TraceEvent::Kind::kWait), 70.0);
}

TEST(Trace, RecordsBarrierWaits) {
  auto m = traced_machine(2);
  m.compute(0, 100.0);
  m.synchronize();
  const Trace t = m.trace();
  EXPECT_DOUBLE_EQ(t.total(3, TraceEvent::Kind::kWait), 100.0);
  EXPECT_DOUBLE_EQ(t.total(0, TraceEvent::Kind::kWait), 0.0);
}

TEST(Trace, RecordsModeledComm) {
  auto m = traced_machine(2);
  const std::vector<ProcId> group{0, 1};
  m.charge_group_comm(group, 42.0);
  const Trace t = m.trace();
  EXPECT_DOUBLE_EQ(t.total(0, TraceEvent::Kind::kModeledComm), 42.0);
  EXPECT_DOUBLE_EQ(t.total(2, TraceEvent::Kind::kModeledComm), 0.0);
}

TEST(Trace, SpanEqualsMachineTime) {
  auto m = traced_machine(3);
  std::vector<ProcId> group(8);
  for (ProcId pid = 0; pid < 8; ++pid) group[pid] = pid;
  broadcast_binomial(m, group, 0, 1, Matrix(2, 2));
  m.compute(3, 11.0);
  EXPECT_DOUBLE_EQ(m.trace().span(), m.time());
}

TEST(Trace, UtilizationIsComputeShare) {
  auto m = traced_machine(1);
  m.compute(0, 30.0);
  std::vector<Message> msgs;
  msgs.emplace_back(0, 1, 1, Matrix(1, 10));  // cost 30
  m.exchange(std::move(msgs));
  // span = 60; proc 0 computed 30 -> utilization 0.5.
  EXPECT_NEAR(m.trace().utilization(0), 0.5, 1e-12);
  EXPECT_NEAR(m.trace().utilization(1), 0.0, 1e-12);
}

TEST(Trace, ResetClearsEvents) {
  auto m = traced_machine(1);
  m.compute(0, 5.0);
  m.reset();
  EXPECT_TRUE(m.trace().empty());
}

TEST(Trace, GanttRendering) {
  auto m = traced_machine(2);
  m.compute(0, 40.0);
  std::vector<Message> msgs;
  msgs.emplace_back(0, 1, 1, Matrix(1, 5));
  m.exchange(std::move(msgs));
  m.synchronize();
  std::ostringstream os;
  m.trace().print_gantt(os, 40);
  const std::string out = os.str();
  EXPECT_NE(out.find("Gantt"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);  // compute on p0
  EXPECT_NE(out.find('.'), std::string::npos);  // waits elsewhere
  EXPECT_NE(out.find("p0 |"), std::string::npos);
}

TEST(Trace, GanttEmptyTrace) {
  Trace t;
  std::ostringstream os;
  t.print_gantt(os);
  EXPECT_NE(os.str().find("empty"), std::string::npos);
}

TEST(Trace, Validation) {
  std::vector<TraceEvent> bad{
      TraceEvent{5, TraceEvent::Kind::kCompute, 0.0, 1.0}};
  EXPECT_THROW(Trace(2, bad), PreconditionError);
  EXPECT_THROW(Trace(8, {TraceEvent{0, TraceEvent::Kind::kCompute, 2.0, 1.0}}),
               PreconditionError);
}

TEST(Trace, ThroughPublicAlgorithmInterface) {
  // MachineParams::trace returns the timeline via MatmulResult::trace.
  Rng rng(9);
  const Matrix a = random_matrix(16, 16, rng);
  const Matrix b = random_matrix(16, 16, rng);
  MachineParams mp = test_params();
  const auto& gk = default_registry().implementation("gk");
  const auto untraced = gk.run(a, b, 8, mp);
  EXPECT_TRUE(untraced.trace.empty());
  mp.trace = true;
  const auto traced = gk.run(a, b, 8, mp);
  EXPECT_FALSE(traced.trace.empty());
  EXPECT_DOUBLE_EQ(traced.trace.span(), traced.report.t_parallel);
  EXPECT_EQ(traced.trace.procs(), 8u);
  // Tracing must not perturb the timing.
  EXPECT_DOUBLE_EQ(traced.report.t_parallel, untraced.report.t_parallel);
  // Per-processor compute total equals the report's compute accounting.
  for (ProcId pid = 0; pid < 8; ++pid) {
    EXPECT_NEAR(traced.trace.total(pid, TraceEvent::Kind::kCompute),
                16.0 * 16.0 * 16.0 / 8.0, 1e-9);
  }
}

TEST(Trace, KindNames) {
  // Exhaustive over the enum: extending Kind must extend to_string.
  EXPECT_STREQ(to_string(TraceEvent::Kind::kCompute), "compute");
  EXPECT_STREQ(to_string(TraceEvent::Kind::kSend), "send");
  EXPECT_STREQ(to_string(TraceEvent::Kind::kWait), "wait");
  EXPECT_STREQ(to_string(TraceEvent::Kind::kModeledComm), "modeled-comm");
  EXPECT_STREQ(to_string(TraceEvent::Kind::kRetry), "retry");
}

TEST(Trace, EmptyTraceEdgeCases) {
  Trace t;
  EXPECT_DOUBLE_EQ(t.span(), 0.0);
  EXPECT_DOUBLE_EQ(t.utilization(0), 0.0);  // span 0 -> 0, not NaN
  // All-zero-duration events still leave span and utilization at 0.
  Trace z(1, {TraceEvent{0, TraceEvent::Kind::kCompute, 0.0, 0.0}});
  EXPECT_DOUBLE_EQ(z.span(), 0.0);
  EXPECT_DOUBLE_EQ(z.utilization(0), 0.0);
}

TEST(Trace, EventsOfOrdersByStartKeepingTies) {
  std::vector<TraceEvent> events;
  events.push_back({0, TraceEvent::Kind::kSend, 5.0, 6.0, 0});
  events.push_back({1, TraceEvent::Kind::kCompute, 0.0, 1.0, 0});
  events.push_back({0, TraceEvent::Kind::kCompute, 0.0, 5.0, 0});
  events.push_back({0, TraceEvent::Kind::kWait, 5.0, 5.0, 0});  // ties send
  const Trace t(2, events);
  const auto of0 = t.events_of(0);
  ASSERT_EQ(of0.size(), 3u);
  EXPECT_EQ(of0[0].kind, TraceEvent::Kind::kCompute);
  // Equal start times keep their recorded order (send before wait).
  EXPECT_EQ(of0[1].kind, TraceEvent::Kind::kSend);
  EXPECT_EQ(of0[2].kind, TraceEvent::Kind::kWait);
}

TEST(Trace, GanttRendersRetryGlyph) {
  std::vector<TraceEvent> events{
      {0, TraceEvent::Kind::kRetry, 0.0, 10.0, 0}};
  const Trace t(1, events);
  std::ostringstream os;
  t.print_gantt(os, 16);
  EXPECT_NE(os.str().find('!'), std::string::npos);
  EXPECT_NE(os.str().find("!=retry"), std::string::npos);  // legend
}

TEST(Trace, WriteChromeIsValidJsonCarryingPhases) {
  auto m = traced_machine(1);
  {
    PhaseScope scope(m, "shift");
    m.compute(0, 5.0);
    std::vector<Message> msgs;
    msgs.emplace_back(0, 1, 1, Matrix(1, 4));
    m.exchange(std::move(msgs));
  }
  std::ostringstream os;
  m.trace().write_chrome(os);
  const std::string out = os.str();
  EXPECT_TRUE(json_valid(out)) << out;
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"shift\""), std::string::npos);
  EXPECT_NE(out.find("\"cat\":\"send\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Trace, PhaseTableValidation) {
  std::vector<TraceEvent> events{
      {0, TraceEvent::Kind::kCompute, 0.0, 1.0, 2}};  // phase 2 of 2
  EXPECT_THROW(Trace(1, events, {"", "align"}), PreconditionError);
  EXPECT_THROW(Trace(1, {}, {}), PreconditionError);  // no default entry
  const Trace ok(1, events, {"", "align", "shift"});
  EXPECT_EQ(ok.phase_name(2), "shift");
  EXPECT_THROW(ok.phase_name(3), PreconditionError);
}

}  // namespace
}  // namespace hpmm
