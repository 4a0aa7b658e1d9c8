// Capture identity (DESIGN.md §9, §12): every combination of the capture
// flags — metrics mode × traffic × trace × causal, at one and several host
// threads — leaves the simulated run unchanged, and each view of it reads
// the same whichever other views are on. One table drives all of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "matrix/generate.hpp"
#include "sim/collectives.hpp"
#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"

namespace hpmm {
namespace {

struct Capture {
  MetricsMode metrics = MetricsMode::kFull;
  TrafficCapture traffic = TrafficCapture::kOn;
  bool trace = false;
  bool causal = false;
  unsigned threads = 1;

  MachineParams apply(MachineParams mp) const {
    mp.metrics_mode = metrics;
    mp.traffic_capture = traffic;
    mp.trace = trace;
    mp.causal = causal;
    mp.exec.threads = threads;
    return mp;
  }
  std::string name() const {
    const char* traffic_name = traffic == TrafficCapture::kOn    ? "on"
                               : traffic == TrafficCapture::kOff ? "off"
                                                                 : "auto";
    return std::string("metrics=") +
           (metrics == MetricsMode::kFull ? "full" : "aggregate") +
           " traffic=" + traffic_name + " trace=" + (trace ? "1" : "0") +
           " causal=" + (causal ? "1" : "0") +
           " threads=" + std::to_string(threads);
  }
};

std::vector<Capture> every_capture() {
  std::vector<Capture> out;
  for (const MetricsMode metrics :
       {MetricsMode::kFull, MetricsMode::kAggregate}) {
    for (const TrafficCapture traffic :
         {TrafficCapture::kOn, TrafficCapture::kOff, TrafficCapture::kAuto}) {
      for (const bool trace : {false, true}) {
        for (const bool causal : {false, true}) {
          for (const unsigned threads : {1u, 4u}) {
            out.push_back({metrics, traffic, trace, causal, threads});
          }
        }
      }
    }
  }
  return out;
}

/// What one run shows. Algorithm runs keep their machine to themselves, so
/// per-processor clocks, the traffic matrix and the DAG JSON come from the
/// directly driven workload only (empty for the others).
struct Observed {
  Matrix product;
  RunReport report;
  Trace trace;
  std::vector<double> clocks;
  bool traffic_captured = false;
  std::size_t links_used = 0;
  std::string dag;
};

Observed run_algorithm(const std::string& algo, std::size_t n, std::size_t p,
                       const MachineParams& mp) {
  Rng rng(7);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  MatmulResult r = default_registry().implementation(algo).run(a, b, p, mp);
  return {std::move(r.c), std::move(r.report), std::move(r.trace)};
}

/// Every charge path on one 16-processor machine: computes, one exchange
/// round, a binomial broadcast, a modeled group charge and a barrier.
Observed drive_machine(const MachineParams& mp) {
  SimMachine m(std::make_shared<Hypercube>(4u), mp);
  std::vector<ProcId> all(16);
  std::iota(all.begin(), all.end(), ProcId{0});
  {
    PhaseScope phase(m, "compute");
    for (const ProcId pid : all) m.compute(pid, 10.0 + pid);
  }
  {
    PhaseScope phase(m, "exchange");
    std::vector<Message> msgs;
    for (ProcId pid = 0; pid < 8; ++pid) {
      msgs.emplace_back(pid, pid + 8, 1, Matrix(1, pid + 1));
    }
    m.exchange(std::move(msgs));
    for (ProcId pid = 8; pid < 16; ++pid) (void)m.receive(pid, 1);
  }
  {
    PhaseScope phase(m, "broadcast");
    (void)broadcast_binomial(m, all, 3, 2, Matrix(2, 2));
    const std::vector<ProcId> group{0, 5, 9};
    m.charge_group_comm(group, 17.0, 4);
  }
  m.synchronize();
  m.assert_clean_run();
  Observed o;
  o.report = m.report("direct", 16, 0.0);
  o.trace = m.trace();
  for (const ProcId pid : all) o.clocks.push_back(m.clock(pid));
  o.traffic_captured = m.traffic_captured();
  o.links_used = m.traffic().links_used();
  if (const CausalGraph* dag = m.causal()) {
    std::ostringstream os;
    dag->write_json(os);
    o.dag = os.str();
  }
  return o;
}

std::string json_of(const RunReport& r) {
  std::ostringstream os;
  r.write_json(os);
  return os.str();
}

/// `r` as aggregate capture reports it: no per-processor maxima and no
/// model chain (documented as reading zero), everything else unchanged.
RunReport with_aggregate_zeros(RunReport r) {
  for (PhaseBreakdown& ph : r.phases) {
    ph.max_compute_time = ph.max_comm_time = ph.max_idle_time = 0.0;
    ph.path = PathTerms{};
  }
  r.critical_path = PathTerms{};
  return r;
}

/// The timeline exactly: order, processor, kind, extent and phase of every
/// event (the Chrome export prints each double's shortest round trip).
std::string timeline_of(const Trace& t) {
  std::ostringstream os;
  t.write_chrome(os);
  return os.str();
}

std::string causal_of(const CausalSummary& c) {
  std::ostringstream os;
  os.precision(17);
  const PathTerms& m = c.measured;
  os << c.complete << ' ' << c.path_spans << ' ' << m.compute << ' '
     << m.startup << ' ' << m.word << ' ' << m.modeled << ' ' << m.other
     << ' ' << c.fault_overhead;
  for (const CausalSpanNote& n : c.fault_spans) {
    os << '\n' << n.kind << ' ' << n.pid << ' ' << n.phase << ' ' << n.start
       << ' ' << n.end << ' ' << n.overhead;
  }
  return os.str();
}

struct Workload {
  std::string name;
  double drop = 0.0;  ///< reliable-delivery drop probability, 0 = ideal
  std::function<Observed(const MachineParams&)> run;
};

TEST(CaptureIdentity, EveryCaptureConfigurationLeavesTheRunUnchanged) {
  const auto algorithm = [](std::string algo, std::size_t n, std::size_t p) {
    return [=](const MachineParams& mp) {
      return run_algorithm(algo, n, p, mp);
    };
  };
  const std::vector<Workload> workloads = {
      {"cannon n=16 p=16", 0.0, algorithm("cannon", 16, 16)},
      {"gk n=16 p=64", 0.0, algorithm("gk", 16, 64)},
      {"dns n=8 p=64", 0.0, algorithm("dns", 8, 64)},
      {"cannon n=16 p=16 drop=0.1", 0.1, algorithm("cannon", 16, 16)},
      {"direct p=16 drop=0.1", 0.1, drive_machine},
  };
  for (const Workload& w : workloads) {
    MachineParams base = machines::ncube2();
    if (w.drop > 0.0) {
      auto plan = std::make_shared<FaultPlan>();
      plan->drop_prob = w.drop;
      plan->reliable = true;
      plan->seed = 3;
      base.faults = plan;
    }
    // The reference: full capture, traffic on, no trace, no causal spans.
    const Observed ref = w.run(Capture{}.apply(base));
    ASSERT_GT(ref.report.critical_path.total(), 0.0);
    // Each view must read the same in every configuration it may not
    // depend on; the first configuration showing it sets the value.
    std::map<std::string, std::string> seen = {
        {"report full", json_of(ref.report)},
        {"report aggregate", json_of(with_aggregate_zeros(ref.report))}};
    const auto same = [&seen](const std::string& view,
                              const std::string& value) {
      const auto [it, first] = seen.emplace(view, value);
      if (!first) EXPECT_EQ(value, it->second) << view;
    };
    for (const Capture& c : every_capture()) {
      SCOPED_TRACE(w.name + ": " + c.name());
      const Observed o = w.run(c.apply(base));
      const RunReport& got = o.report;

      // The simulated run itself: product, clocks and the whole report.
      if (o.product.rows() > 0) {
        EXPECT_EQ(max_abs_diff(o.product, ref.product), 0.0);
      }
      EXPECT_EQ(o.clocks, ref.clocks);
      same(c.metrics == MetricsMode::kFull ? "report full" : "report aggregate",
           json_of(got));

      // Traffic: gated by its own flag only (auto is on at p = 16).
      if (!o.clocks.empty()) {
        EXPECT_EQ(o.traffic_captured, c.traffic != TrafficCapture::kOff);
        EXPECT_EQ(o.links_used > 0, o.traffic_captured);
      }

      // The timeline: the same in every traced configuration.
      EXPECT_EQ(o.trace.empty(), !c.trace);
      if (c.trace) {
        EXPECT_EQ(o.trace.span(), got.t_parallel);
        same("timeline", timeline_of(o.trace));
      }

      // The span log and its DAG: the same across metrics mode, traffic
      // and host threads. A trace adds barrier and group waits to the log
      // as leaves, so counts and DAG JSON depend on the trace flag, while
      // the measured critical path never changes.
      const std::string with_trace = c.trace ? " with trace" : "";
      EXPECT_EQ(got.engine.causal_spans > 0, c.trace || c.causal);
      if (c.trace || c.causal) {
        same("log spans" + with_trace,
             std::to_string(got.engine.causal_spans));
      }
      EXPECT_EQ(got.causal.enabled, c.causal);
      if (!c.causal) continue;
      ASSERT_TRUE(got.causal.complete);
      EXPECT_LE(std::abs(got.causal.measured.total() - got.t_parallel),
                1e-9 * std::max(1.0, got.t_parallel));
      same("causal summary", causal_of(got.causal));
      same("dag" + with_trace, o.dag);
      if (!o.dag.empty()) {
        EXPECT_EQ(o.dag.find("\"kind\": \"wait\"") != std::string::npos,
                  c.trace);
      }
    }
    for (const char* view : {"timeline", "causal summary"}) {
      EXPECT_EQ(seen.count(view), 1u) << view;
    }
  }
}

}  // namespace
}  // namespace hpmm
