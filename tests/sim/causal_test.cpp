// Causal span DAG (docs/observability.md): the measured critical path must
// reconcile with the model-term PathTerms chain to 1e-9 on fault-free runs,
// attribute retry/straggler spans on faulty runs, stay byte-identical across
// capture modes, and sample down to an exact subset of the full DAG.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include "algorithms/cannon.hpp"
#include "algorithms/gk.hpp"
#include "matrix/generate.hpp"
#include "sim/causal.hpp"
#include "sim/fault.hpp"
#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"
#include "util/json.hpp"

namespace hpmm {
namespace {

MachineParams causal_params() {
  MachineParams mp = machines::ncube2();
  mp.causal = true;
  return mp;
}

MatmulResult run_algo(const ParallelMatmul& algo, std::size_t n, std::size_t p,
                      const MachineParams& mp, std::uint64_t seed = 42) {
  Rng rng(seed);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  return algo.run(a, b, p, mp);
}

/// |a - b| <= 1e-9 * max(1, |a|): the ISSUE's reconciliation tolerance.
void expect_reconciled(double measured, double expected) {
  EXPECT_LE(std::abs(measured - expected),
            1e-9 * std::max(1.0, std::abs(expected)))
      << "measured " << measured << " vs " << expected;
}

// ----- fault-free reconciliation --------------------------------------------

TEST(Causal, FaultFreeCannonPathMatchesModelChain) {
  const MatmulResult r = run_algo(CannonAlgorithm(), 16, 16, causal_params());
  const CausalSummary& ca = r.report.causal;
  ASSERT_TRUE(ca.enabled);
  ASSERT_TRUE(ca.complete);
  EXPECT_GT(r.report.engine.causal_spans, 0u);
  EXPECT_GT(ca.path_spans, 0u);
  // Total and every individual term against the chain_ decomposition.
  const PathTerms& chain = r.report.critical_path;
  expect_reconciled(ca.measured.total(), chain.total());
  expect_reconciled(ca.measured.total(), r.report.t_parallel);
  expect_reconciled(ca.measured.compute, chain.compute);
  expect_reconciled(ca.measured.startup, chain.startup);
  expect_reconciled(ca.measured.word, chain.word);
  expect_reconciled(ca.measured.modeled, chain.modeled);
  expect_reconciled(ca.measured.other, chain.other);
  EXPECT_EQ(ca.fault_overhead, 0.0);
  EXPECT_TRUE(ca.fault_spans.empty());
}

TEST(Causal, FaultFreeGkPathMatchesModelChain) {
  const MatmulResult r = run_algo(GkAlgorithm(), 16, 64, causal_params());
  const CausalSummary& ca = r.report.causal;
  ASSERT_TRUE(ca.enabled);
  ASSERT_TRUE(ca.complete);
  const PathTerms& chain = r.report.critical_path;
  expect_reconciled(ca.measured.total(), chain.total());
  expect_reconciled(ca.measured.total(), r.report.t_parallel);
  expect_reconciled(ca.measured.compute, chain.compute);
  expect_reconciled(ca.measured.startup, chain.startup);
  expect_reconciled(ca.measured.word, chain.word);
  expect_reconciled(ca.measured.modeled, chain.modeled);
  EXPECT_EQ(ca.fault_overhead, 0.0);
}

TEST(Causal, OffByDefaultAndReportsDisabled) {
  const MatmulResult r =
      run_algo(CannonAlgorithm(), 16, 16, machines::ncube2());
  EXPECT_FALSE(r.report.causal.enabled);
  EXPECT_EQ(r.report.engine.causal_spans, 0u);
}

TEST(Causal, SummaryIsExactlyEqualAcrossHostThreadCounts) {
  MachineParams one = causal_params();
  one.exec.threads = 1;
  MachineParams four = causal_params();
  four.exec.threads = 4;
  const MatmulResult r1 = run_algo(CannonAlgorithm(), 16, 16, one);
  const MatmulResult r4 = run_algo(CannonAlgorithm(), 16, 16, four);
  EXPECT_EQ(r1.report.engine.causal_spans, r4.report.engine.causal_spans);
  EXPECT_EQ(r1.report.causal.path_spans, r4.report.causal.path_spans);
  EXPECT_EQ(r1.report.causal.measured.total(), r4.report.causal.measured.total());
  EXPECT_EQ(r1.report.causal.fault_overhead, r4.report.causal.fault_overhead);
}

// ----- fault attribution ----------------------------------------------------

std::shared_ptr<FaultPlan> drop_plan(double prob, std::uint64_t seed) {
  auto plan = std::make_shared<FaultPlan>();
  plan->drop_prob = prob;
  plan->reliable = true;
  plan->seed = seed;
  return plan;
}

TEST(Causal, RetriesAreNamedOnTheFaultyPath) {
  MachineParams mp = causal_params();
  mp.faults = drop_plan(0.1, 3);
  const MatmulResult r = run_algo(CannonAlgorithm(), 16, 16, mp);
  const CausalSummary& ca = r.report.causal;
  ASSERT_TRUE(ca.complete);
  expect_reconciled(ca.measured.total(), r.report.t_parallel);
  ASSERT_GT(ca.fault_overhead, 0.0);
  ASSERT_FALSE(ca.fault_spans.empty());
  // The named spans account for the full fault overhead on the path...
  double named = 0.0;
  bool any_retry_or_transfer = false;
  for (const CausalSpanNote& note : ca.fault_spans) {
    named += note.overhead;
    EXPECT_GT(note.end, note.start);
    if (note.kind == "retry" || note.kind == "transfer" ||
        note.kind == "send") {
      any_retry_or_transfer = true;
    }
  }
  expect_reconciled(named, ca.fault_overhead);
  EXPECT_TRUE(any_retry_or_transfer);
  // ...and the overhead explains exactly how far T_p stretched past the
  // fault-free run.
  const MatmulResult clean = run_algo(CannonAlgorithm(), 16, 16, causal_params());
  expect_reconciled(clean.report.t_parallel + ca.fault_overhead,
                    r.report.t_parallel);
}

TEST(Causal, StragglersAreNamedOnTheFaultyPath) {
  MachineParams mp = causal_params();
  auto plan = std::make_shared<FaultPlan>();
  plan->stragglers.push_back({0, 2.0});
  mp.faults = plan;
  const MatmulResult r = run_algo(CannonAlgorithm(), 16, 16, mp);
  const CausalSummary& ca = r.report.causal;
  ASSERT_TRUE(ca.complete);
  expect_reconciled(ca.measured.total(), r.report.t_parallel);
  ASSERT_GT(ca.fault_overhead, 0.0);
  bool any_compute = false;
  for (const CausalSpanNote& note : ca.fault_spans) {
    if (note.kind == "compute") any_compute = true;
  }
  EXPECT_TRUE(any_compute) << "straggler inflation must surface on compute "
                              "spans of the slowed processor";
  const MatmulResult clean = run_algo(CannonAlgorithm(), 16, 16, causal_params());
  expect_reconciled(clean.report.t_parallel + ca.fault_overhead,
                    r.report.t_parallel);
}

// ----- direct-drive determinism and sampling --------------------------------

/// A small deterministic workload driven straight on a SimMachine: compute,
/// one butterfly exchange round, a barrier.
std::string dag_json(const MachineParams& base, double sample,
                     std::uint64_t seed) {
  MachineParams mp = base;
  mp.causal = true;
  mp.trace_sample = sample;
  mp.trace_sample_seed = seed;
  SimMachine m(std::make_shared<Hypercube>(4u), mp);
  for (ProcId pid = 0; pid < 16; ++pid) m.compute(pid, 10.0 + pid);
  std::vector<Message> msgs;
  for (ProcId pid = 0; pid < 8; ++pid) {
    msgs.emplace_back(pid, pid + 8, 1, Matrix(1, pid + 1));
  }
  m.exchange(std::move(msgs));
  for (ProcId pid = 8; pid < 16; ++pid) (void)m.receive(pid, 1);
  m.synchronize();
  std::ostringstream os;
  const CausalGraph* g = m.causal();
  EXPECT_NE(g, nullptr);
  g->write_json(os);
  EXPECT_TRUE(json_valid(os.str())) << os.str();
  return os.str();
}

TEST(Causal, DagJsonIsByteIdenticalAcrossCaptureModes) {
  MachineParams full = machines::ncube2();
  MachineParams agg = machines::ncube2();
  agg.metrics_mode = MetricsMode::kAggregate;
  EXPECT_EQ(dag_json(full, 1.0, 0), dag_json(agg, 1.0, 0));
  // And with sampling: the gate keys on (pid, seed) only, so capture mode
  // still cannot change the sampled DAG.
  EXPECT_EQ(dag_json(full, 0.5, 5), dag_json(agg, 0.5, 5));
}

TEST(Causal, SampledDagIsSeedStableAndDifferentSeedsDiffer) {
  const std::string a = dag_json(machines::ncube2(), 0.5, 5);
  const std::string b = dag_json(machines::ncube2(), 0.5, 5);
  EXPECT_EQ(a, b);
  // Complete runs stamp complete: true, sampled runs complete: false.
  EXPECT_NE(a.find("\"complete\": false"), std::string::npos);
  EXPECT_NE(dag_json(machines::ncube2(), 1.0, 5)
                .find("\"complete\": true"),
            std::string::npos);
}

TEST(Causal, SampledSpansAreAnExactSubsetOfTheFullDag) {
  // Record both the full and the sampled DAG of the same workload, then
  // check every sampled span appears in the full DAG with identical
  // (pid, kind, phase, start, end, terms) — sampling must drop spans, never
  // alter them. Predecessor indices differ (the arena is denser), so they
  // are excluded from the key.
  const auto spans_of = [](double sample) {
    MachineParams mp = machines::ncube2();
    mp.causal = true;
    mp.trace_sample = sample;
    mp.trace_sample_seed = 5;
    SimMachine m(std::make_shared<Hypercube>(4u), mp);
    for (ProcId pid = 0; pid < 16; ++pid) m.compute(pid, 10.0 + pid);
    std::vector<Message> msgs;
    for (ProcId pid = 0; pid < 8; ++pid) {
      msgs.emplace_back(pid, pid + 8, 1, Matrix(1, pid + 1));
    }
    m.exchange(std::move(msgs));
    for (ProcId pid = 8; pid < 16; ++pid) (void)m.receive(pid, 1);
    m.synchronize();
    return m.causal()->spans();
  };
  using Key = std::tuple<ProcId, int, int, double, double, double, double>;
  const auto key = [](const CausalGraph::Span& s) {
    return Key{s.pid,         static_cast<int>(s.kind),
               s.phase,       s.start,
               s.end,         s.terms.total(),
               s.fault_overhead};
  };
  std::multiset<Key> full;
  for (const auto& s : spans_of(1.0)) full.insert(key(s));
  const auto sampled = spans_of(0.5);
  ASSERT_GT(sampled.size(), 0u);
  ASSERT_LT(sampled.size(), full.size());
  for (const auto& s : sampled) {
    const auto it = full.find(key(s));
    ASSERT_NE(it, full.end())
        << "sampled span not present in the full DAG (pid " << s.pid << ")";
    full.erase(it);
  }
}

TEST(Causal, ResetDropsSpansAndTraceIdDependsOnSeed) {
  MachineParams mp = machines::ncube2();
  mp.causal = true;
  SimMachine m(std::make_shared<Hypercube>(2u), mp);
  m.compute(0, 5.0);
  ASSERT_NE(m.causal(), nullptr);
  EXPECT_GT(m.causal()->spans().size(), 0u);
  m.reset();
  EXPECT_EQ(m.causal()->spans().size(), 0u);
  EXPECT_EQ(m.causal()->head(0), CausalGraph::kNoSpan);

  MachineParams other = mp;
  other.trace_sample_seed = 7;
  SimMachine m2(std::make_shared<Hypercube>(2u), other);
  EXPECT_NE(m.causal()->trace_id(), m2.causal()->trace_id());
}

TEST(Causal, SpanLogKeepsIndicesAddressesAndOrderAcrossChunks) {
  // Three chunks: pid 0 runs a compute chain, and the first span of each
  // later chunk is a transfer to pid 1 waiting on pid 0's head, the last
  // span of the chunk before it. pid 1 then computes on from the second
  // transfer, so its chain crosses both chunk boundaries.
  using Kind = CausalGraph::Kind;
  constexpr std::size_t kChunk = CausalGraph::Spans::kChunkSpans;
  constexpr std::size_t kTotal = 2 * kChunk + 7;
  CausalGraph g(2, /*complete=*/true, 1);
  double t = 0.0;
  const CausalGraph::Span* first = nullptr;
  while (g.spans().size() < kTotal) {
    const std::size_t i = g.spans().size();
    if (i == kChunk || i == 2 * kChunk) {
      g.append(1, Kind::kTransfer, 0, t - 1.0, t, {.word = 1.0}, 0.0,
               {g.head(0), g.hop(0) + 1});
    } else {
      g.append(i > 2 * kChunk ? 1 : 0, Kind::kCompute, 0, t, t + 1.0,
               {.compute = 1.0}, 0.0, {});
      t += 1.0;
    }
    if (first == nullptr) first = &g.spans()[0];
    ASSERT_EQ(&g.spans()[0], first) << "span 0 moved at append " << i;
  }
  const auto& spans = g.spans();
  ASSERT_EQ(spans.size(), kTotal);
  // The log counts the span slots written, not the untouched rest of the
  // third chunk.
  const std::uint64_t held = g.approx_bytes();
  EXPECT_GE(held, kTotal * sizeof(CausalGraph::Span));
  EXPECT_LT(held, (2 * kChunk + kChunk / 2) * sizeof(CausalGraph::Span));

  // Preds and hops: pid 0's chain steps over the transfers, each transfer
  // hangs off the span just before it, and pid 1 chains onto the second.
  std::uint32_t prev0 = CausalGraph::kNoSpan;
  for (std::size_t i = 0; i < kTotal; ++i) {
    const auto& s = spans[i];
    if (i == kChunk || i == 2 * kChunk) {
      EXPECT_EQ(s.kind, Kind::kTransfer);
      EXPECT_EQ(s.pid, 1u);
      EXPECT_EQ(s.pred, i - 1);
      EXPECT_EQ(s.hop, 1u);
    } else if (i > 2 * kChunk) {
      EXPECT_EQ(s.pid, 1u);
      EXPECT_EQ(s.pred, i - 1);
      EXPECT_EQ(s.hop, 1u);
    } else {
      ASSERT_EQ(s.pid, 0u);
      ASSERT_EQ(s.pred, prev0) << "span " << i;
      ASSERT_EQ(s.hop, 0u);
      prev0 = static_cast<std::uint32_t>(i);
    }
  }
  EXPECT_EQ(g.head(0), 2 * kChunk - 1);
  EXPECT_EQ(g.head(1), kTotal - 1);
  EXPECT_EQ(g.hop(1), 1u);

  // Iteration visits every span in append order, across chunk boundaries.
  std::size_t n = 0;
  for (const auto& s : spans) {
    ASSERT_EQ(&s, &spans[n]) << "iteration diverges at " << n;
    ++n;
  }
  EXPECT_EQ(n, kTotal);
  EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                          [](const auto& s) { return s.pid == 1; }),
            8);

  // pid 1's critical path: pid 0's chain up to the second transfer (the
  // first transfer is off it), the transfer, then pid 1's computes.
  const auto cp = g.critical_path(1);
  ASSERT_EQ(cp.spans.size(), kTotal - 1);
  EXPECT_EQ(cp.spans.front(), 0u);
  EXPECT_EQ(cp.spans.back(), kTotal - 1);
  for (std::size_t k = 1; k < cp.spans.size(); ++k) {
    ASSERT_LT(cp.spans[k - 1], cp.spans[k]);
    ASSERT_NE(cp.spans[k], kChunk);
  }
  EXPECT_DOUBLE_EQ(cp.terms.compute, double(kTotal - 2));
  EXPECT_DOUBLE_EQ(cp.terms.word, 1.0);

  // reset() keeps the chunks: the next log starts at the same address, and
  // the slots the first log wrote are still held.
  g.reset();
  EXPECT_EQ(g.spans().size(), 0u);
  g.append(0, Kind::kCompute, 0, 0.0, 1.0, {.compute = 1.0}, 0.0, {});
  EXPECT_EQ(&g.spans()[0], first);
  EXPECT_EQ(g.spans()[0].pred, CausalGraph::kNoSpan);
  EXPECT_EQ(g.approx_bytes(), held);
}

}  // namespace
}  // namespace hpmm
