// DESIGN.md §5 "failure injection" seams: the simulator and algorithm layer
// must reject misuse loudly — invalid (n, p) combinations, inbox misuse,
// port-model violations — and every run must satisfy the clean-run
// invariant (no message delivered but never received).

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "core/registry.hpp"
#include "machine/params.hpp"
#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

MachineParams test_params() {
  MachineParams m;
  m.t_s = 10.0;
  m.t_w = 2.0;
  return m;
}

SimMachine make_machine(unsigned dim) {
  return SimMachine(std::make_shared<Hypercube>(dim), test_params());
}

Matrix payload(std::size_t words) { return Matrix(1, words); }

TEST(ErrorPaths, ApplicabilityRejectsInvalidShapes) {
  const auto& reg = default_registry();
  // Non-square p for Cannon.
  EXPECT_THROW(reg.implementation("cannon").check_applicable(16, 10),
               PreconditionError);
  // sqrt(p) does not divide n.
  EXPECT_THROW(reg.implementation("cannon").check_applicable(15, 16),
               PreconditionError);
  // GK needs p = 2^(3q).
  EXPECT_THROW(reg.implementation("gk").check_applicable(16, 16),
               PreconditionError);
  // DNS needs p >= n^2.
  EXPECT_THROW(reg.implementation("dns").check_applicable(16, 8),
               PreconditionError);
  // p exceeding the usable maximum.
  EXPECT_THROW(reg.implementation("cannon").check_applicable(2, 16),
               PreconditionError);
}

TEST(ErrorPaths, RunRefusesWhatCheckApplicableRefuses) {
  const auto& reg = default_registry();
  const Matrix a(16, 16), b(16, 16);
  EXPECT_THROW(reg.implementation("cannon").run(a, b, 10, test_params()),
               PreconditionError);
}

TEST(ErrorPaths, ReceiveFromEmptyInboxIsRejected) {
  auto m = make_machine(1);
  EXPECT_THROW(m.receive(0, 7), PreconditionError);
}

TEST(ErrorPaths, ReceiveWrongTagIsRejected) {
  auto m = make_machine(1);
  std::vector<Message> msgs;
  msgs.emplace_back(0, 1, /*tag=*/3, payload(4));
  m.exchange(std::move(msgs));
  EXPECT_THROW(m.receive(1, 4), PreconditionError);  // wrong tag
  EXPECT_NO_THROW(m.receive(1, 3));
}

TEST(ErrorPaths, DoubleReceiveIsRejected) {
  auto m = make_machine(1);
  std::vector<Message> msgs;
  msgs.emplace_back(0, 1, 3, payload(4));
  m.exchange(std::move(msgs));
  (void)m.receive(1, 3);
  EXPECT_THROW(m.receive(1, 3), PreconditionError);
}

TEST(ErrorPaths, ReceiveOutOfRangePidIsRejected) {
  auto m = make_machine(1);
  EXPECT_THROW(m.receive(5, 0), PreconditionError);
}

TEST(ErrorPaths, OnePortRejectsTwoSendsFromOneProcessor) {
  auto m = make_machine(2);  // one-port is the default
  std::vector<Message> msgs;
  msgs.emplace_back(0, 1, 1, payload(4));
  msgs.emplace_back(0, 2, 2, payload(4));
  EXPECT_THROW(m.exchange(std::move(msgs)), PreconditionError);
}

TEST(ErrorPaths, OnePortRejectsTwoReceivesAtOneProcessor) {
  auto m = make_machine(2);
  std::vector<Message> msgs;
  msgs.emplace_back(1, 0, 1, payload(4));
  msgs.emplace_back(2, 0, 2, payload(4));
  EXPECT_THROW(m.exchange(std::move(msgs)), PreconditionError);
}

TEST(ErrorPaths, SelfMessageIsRejected) {
  auto m = make_machine(2);
  std::vector<Message> msgs;
  msgs.emplace_back(1, 1, 1, payload(4));
  EXPECT_THROW(m.exchange(std::move(msgs)), PreconditionError);
}

// Satellite regression: the clean-run invariant names the leftover message.
TEST(ErrorPaths, LeftoverMessageFailsCleanRunWithTagAndDestination) {
  auto m = make_machine(2);
  std::vector<Message> msgs;
  msgs.emplace_back(0, 3, /*tag=*/42, payload(4));
  m.exchange(std::move(msgs));
  EXPECT_EQ(m.pending_messages(), 1u);
  try {
    m.assert_clean_run();
    FAIL() << "expected InternalError for the unreceived message";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tag 42"), std::string::npos) << what;
    EXPECT_NE(what.find("processor 3"), std::string::npos) << what;
  }
}

TEST(ErrorPaths, CleanRunPassesWhenAllMessagesReceived) {
  auto m = make_machine(2);
  std::vector<Message> msgs;
  msgs.emplace_back(0, 3, 42, payload(4));
  m.exchange(std::move(msgs));
  (void)m.receive(3, 42);
  EXPECT_EQ(m.pending_messages(), 0u);
  EXPECT_NO_THROW(m.assert_clean_run());
}

TEST(ErrorPaths, ChargeGroupCommValidatesMembers) {
  auto m = make_machine(1);
  const std::vector<ProcId> bad = {0, 9};
  EXPECT_THROW(m.charge_group_comm(bad, 10.0), PreconditionError);
}

TEST(ErrorPaths, NegativeComputeIsRejected) {
  auto m = make_machine(1);
  EXPECT_THROW(m.compute(0, -5.0), PreconditionError);
}

TEST(ErrorPaths, NonFiniteAndHugeChargesAreRejected) {
  // Booking these would cast a non-finite or >= 2^64 double to uint64 (UB)
  // or make T_p infinite; each must fail naming the function and leave the
  // machine untouched.
  auto m = make_machine(1);
  const std::vector<ProcId> group = {0, 1};
  const auto rejects = [](const auto& call, const std::string& fn) {
    try {
      call();
      ADD_FAILURE() << fn << " accepted the charge";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(fn), std::string::npos) << e.what();
    }
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double flops : {inf, nan, 1e30, 18446744073709551616.0}) {
    rejects([&] { m.compute(0, flops); }, "SimMachine::compute");
  }
  for (const double time : {inf, -inf, nan}) {
    rejects([&] { m.charge_group_comm(group, time); },
            "SimMachine::charge_group_comm");
  }
  EXPECT_EQ(m.time(), 0.0);
  EXPECT_EQ(m.stats(0).flops, 0u);
  // The largest representable count below 2^64 is still booked exactly.
  m.compute(1, 18446744073709549568.0);
  EXPECT_EQ(m.stats(1).flops, 18446744073709549568ull);
}

}  // namespace
}  // namespace hpmm
