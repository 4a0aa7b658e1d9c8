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

SimMachine machine(unsigned dim) {
  return SimMachine(std::make_shared<Hypercube>(dim), test_params());
}

TEST(Phase, DefaultIsPhaseZero) {
  auto m = machine(1);
  EXPECT_EQ(m.current_phase(), 0u);
  ASSERT_EQ(m.phase_names().size(), 1u);
  EXPECT_EQ(m.phase_names()[0], "");
}

TEST(Phase, BeginEndNestAndIntern) {
  auto m = machine(1);
  const auto a = m.begin_phase("align");
  EXPECT_EQ(m.current_phase(), a);
  const auto s = m.begin_phase("shift");
  EXPECT_EQ(m.current_phase(), s);  // innermost wins
  m.end_phase();
  EXPECT_EQ(m.current_phase(), a);
  m.end_phase();
  EXPECT_EQ(m.current_phase(), 0u);
  // Reusing a name returns the same interned id.
  EXPECT_EQ(m.begin_phase("shift"), s);
  m.end_phase();
  ASSERT_EQ(m.phase_names().size(), 3u);
  EXPECT_EQ(m.phase_names()[a], "align");
  EXPECT_EQ(m.phase_names()[s], "shift");
}

TEST(Phase, ScopeIsRaii) {
  auto m = machine(1);
  {
    PhaseScope scope(m, "multiply");
    EXPECT_EQ(m.phase_names()[m.current_phase()], "multiply");
  }
  EXPECT_EQ(m.current_phase(), 0u);
}

TEST(Phase, Validation) {
  auto m = machine(1);
  EXPECT_THROW(m.end_phase(), PreconditionError);  // nothing open
  EXPECT_THROW(m.begin_phase(""), PreconditionError);
}

TEST(Phase, TagsTraceEvents) {
  auto m = machine(2);
  m.enable_tracing();
  m.compute(0, 5.0);  // unphased
  {
    PhaseScope scope(m, "shift");
    std::vector<Message> msgs;
    msgs.emplace_back(0, 1, 1, Matrix(1, 5));
    m.exchange(std::move(msgs));
  }
  const Trace t = m.trace();
  ASSERT_GE(t.phase_names().size(), 2u);
  bool saw_unphased_compute = false, saw_phased_send = false;
  for (const auto& e : t.events()) {
    if (e.kind == TraceEvent::Kind::kCompute && e.phase == 0) {
      saw_unphased_compute = true;
    }
    if (e.kind == TraceEvent::Kind::kSend) {
      EXPECT_EQ(t.phase_name(e.phase), "shift");
      saw_phased_send = true;
    }
  }
  EXPECT_TRUE(saw_unphased_compute);
  EXPECT_TRUE(saw_phased_send);
}

TEST(Phase, ReportBreaksDownByPhase) {
  auto m = machine(2);
  {
    PhaseScope scope(m, "multiply");
    m.compute(0, 100.0);
  }
  {
    PhaseScope scope(m, "shift");
    std::vector<Message> msgs;
    msgs.emplace_back(0, 1, 1, Matrix(1, 5));  // cost 10 + 2*5 = 20
    m.exchange(std::move(msgs));
  }
  const RunReport r = m.report("test", 4, 64.0);
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_EQ(r.phases[0].name, "multiply");
  EXPECT_DOUBLE_EQ(r.phases[0].max_compute_time, 100.0);
  EXPECT_EQ(r.phases[0].messages, 0u);
  EXPECT_EQ(r.phases[1].name, "shift");
  EXPECT_DOUBLE_EQ(r.phases[1].max_comm_time, 20.0);
  EXPECT_EQ(r.phases[1].messages, 1u);
  EXPECT_EQ(r.phases[1].words, 5u);
  // Critical path: 100 compute + 10 startup + 10 word time.
  EXPECT_DOUBLE_EQ(r.critical_path.compute, 100.0);
  EXPECT_DOUBLE_EQ(r.critical_path.startup, 10.0);
  EXPECT_DOUBLE_EQ(r.critical_path.word, 10.0);
  EXPECT_DOUBLE_EQ(r.critical_path.total(), r.t_parallel);
}

TEST(Phase, UnphasedRowOnlyWhenNonZero) {
  auto m = machine(1);
  {
    PhaseScope scope(m, "only");
    m.compute(0, 1.0);
  }
  const RunReport r = m.report("test", 2, 8.0);
  ASSERT_EQ(r.phases.size(), 1u);
  EXPECT_EQ(r.phases[0].name, "only");
}

TEST(Phase, WaitersAdoptTheSendersChain) {
  // Receiver 1 idles until the send arrives; its critical path must be the
  // sender's compute + the message cost, not its own (empty) history.
  auto m = machine(2);
  {
    PhaseScope scope(m, "work");
    m.compute(0, 50.0);
  }
  {
    PhaseScope scope(m, "move");
    std::vector<Message> msgs;
    msgs.emplace_back(0, 1, 1, Matrix(1, 5));
    m.exchange(std::move(msgs));
  }
  const RunReport r = m.report("test", 4, 64.0);
  // Both the sender's and the receiver's clock decompose identically here,
  // and T_p = 50 + 20.
  EXPECT_DOUBLE_EQ(r.t_parallel, 70.0);
  EXPECT_DOUBLE_EQ(r.critical_path.compute, 50.0);
  EXPECT_DOUBLE_EQ(r.critical_path.startup, 10.0);
  EXPECT_DOUBLE_EQ(r.critical_path.word, 10.0);
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_DOUBLE_EQ(r.phases[0].path.compute, 50.0);  // "work" slice
  EXPECT_DOUBLE_EQ(r.phases[1].path.startup + r.phases[1].path.word, 20.0);
}

TEST(Phase, BarrierLaggardsAdoptTheCriticalChain) {
  auto m = machine(2);
  {
    PhaseScope scope(m, "compute");
    m.compute(2, 80.0);
  }
  m.synchronize();
  const RunReport r = m.report("test", 4, 64.0);
  EXPECT_DOUBLE_EQ(r.t_parallel, 80.0);
  EXPECT_DOUBLE_EQ(r.critical_path.compute, 80.0);
  EXPECT_DOUBLE_EQ(r.critical_path.total(), 80.0);
}

TEST(Phase, ModeledChargesLandInModeledTerm) {
  auto m = machine(2);
  const std::vector<ProcId> group{0, 1, 2, 3};
  {
    PhaseScope scope(m, "allport");
    m.charge_group_comm(group, 33.0);
  }
  const RunReport r = m.report("test", 4, 64.0);
  EXPECT_DOUBLE_EQ(r.critical_path.modeled, 33.0);
  EXPECT_DOUBLE_EQ(r.critical_path.total(), r.t_parallel);
}

TEST(Phase, ChainSumsToClockForEveryProcessor) {
  // After a full GK run, the per-phase critical-path terms must sum to T_p
  // (fp-accumulation tolerance only).
  Rng rng(3);
  const Matrix a = random_matrix(16, 16, rng);
  const Matrix b = random_matrix(16, 16, rng);
  const auto& gk = default_registry().implementation("gk");
  const auto result = gk.run(a, b, 64, test_params());
  const RunReport& r = result.report;
  EXPECT_FALSE(r.phases.empty());
  double sum = 0.0;
  for (const auto& ph : r.phases) sum += ph.path.total();
  EXPECT_NEAR(sum, r.t_parallel, 1e-9 * (1.0 + r.t_parallel));
  EXPECT_NEAR(r.critical_path.total(), r.t_parallel,
              1e-9 * (1.0 + r.t_parallel));
}

TEST(Phase, AlgorithmsNamePaperPhases) {
  Rng rng(1);
  const Matrix a = random_matrix(16, 16, rng);
  const Matrix b = random_matrix(16, 16, rng);
  const auto& cannon = default_registry().implementation("cannon");
  const auto result = cannon.run(a, b, 16, test_params());
  std::vector<std::string> names;
  for (const auto& ph : result.report.phases) names.push_back(ph.name);
  EXPECT_EQ(names, (std::vector<std::string>{"align", "multiply", "shift"}));
}

TEST(Phase, ResetClearsPhaseState) {
  auto m = machine(1);
  {
    PhaseScope scope(m, "x");
    m.compute(0, 1.0);
  }
  m.metrics().counter("custom").add(5);
  m.reset();
  EXPECT_EQ(m.current_phase(), 0u);
  EXPECT_EQ(m.phase_names().size(), 1u);
  EXPECT_EQ(m.metrics().counter("custom").value(), 0u);
  EXPECT_EQ(m.traffic().total_words(), 0u);
  const RunReport r = m.report("test", 2, 8.0);
  EXPECT_TRUE(r.phases.empty());
}

TEST(Metrics, ExchangeFeedsHistogramsAndTraffic) {
  auto m = machine(2);
  std::vector<Message> msgs;
  msgs.emplace_back(0, 1, 1, Matrix(1, 5));
  msgs.emplace_back(2, 3, 1, Matrix(1, 3));
  m.exchange(std::move(msgs));
  const auto* words = m.metrics().find_histogram("sim.message_words");
  ASSERT_NE(words, nullptr);
  EXPECT_EQ(words->count(), 2u);
  EXPECT_DOUBLE_EQ(words->sum(), 8.0);
  EXPECT_EQ(m.metrics().counter("sim.messages").value(), 2u);
  EXPECT_EQ(m.metrics().counter("sim.words").value(), 8u);
  EXPECT_EQ(m.traffic().words(0, 1), 5u);
  EXPECT_EQ(m.traffic().words(2, 3), 3u);
  EXPECT_EQ(m.traffic().links_used(), 2u);
}

TEST(Metrics, CollectivesCountInvocations) {
  auto m = machine(3);
  std::vector<ProcId> group(8);
  for (ProcId pid = 0; pid < 8; ++pid) group[pid] = pid;
  broadcast_binomial(m, group, 0, 1, Matrix(2, 2));
  EXPECT_EQ(m.metrics().counter("collective.broadcast_binomial").value(), 1u);
  std::vector<Matrix> contribs(8, Matrix(2, 2));
  reduce_binomial(m, group, 0, 2, std::move(contribs));
  EXPECT_EQ(m.metrics().counter("collective.reduce_binomial").value(), 1u);
}

TEST(Metrics, RegistryJsonExportIsValid) {
  auto m = machine(2);
  std::vector<Message> msgs;
  msgs.emplace_back(0, 1, 1, Matrix(1, 4));
  m.exchange(std::move(msgs));
  std::ostringstream os;
  m.metrics().write_json(os);
  EXPECT_TRUE(json_valid(os.str())) << os.str();
}

}  // namespace
}  // namespace hpmm
