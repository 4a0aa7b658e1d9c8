// Per-layer probes of the traced run. Everything here calls public entry
// points only; no knob inside the library is added or touched.

#include <array>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "core/registry.hpp"
#include "e2e.hpp"
#include "matrix/checksum.hpp"
#include "matrix/kernels.hpp"
#include "sim/collectives.hpp"
#include "sim/fault.hpp"
#include "sim/sim_machine.hpp"
#include "spans.hpp"
#include "topology/hypercube.hpp"
#include "util/bits.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

void RunTotals::add(double run_wall, const hpmm::MatmulResult& r) {
  const hpmm::RunReport& rep = r.report;
  wall += run_wall;
  engine_wall += rep.engine.wall_seconds;
  events += rep.engine.events;
  messages += rep.total_messages;
  words += rep.total_words;
  inbox_high_water = std::max(inbox_high_water, rep.engine.inbox_high_water);
  arena_bytes_per_proc =
      std::max(arena_bytes_per_proc, static_cast<double>(rep.engine.arena_bytes) /
                                         static_cast<double>(rep.p));
  trace_events += r.trace.events().size();
  causal_spans += rep.engine.causal_spans;
  causal_bytes += rep.engine.causal_bytes;
  pool_batches += rep.engine.pool_batches;
  pool_busy += rep.engine.pool_busy_seconds;
  retransmissions += rep.faults.retransmissions;
  dropped += rep.faults.transmissions_dropped;
  abft_corrected += rep.faults.abft_corrected;
}

namespace {

using hpmm::MachineParams;

/// Median seconds per call of body(i), over batches long enough (>= 1 ms)
/// for the clock to resolve: at least five batches, then more until
/// `budget` seconds have passed.
double per_call(const std::function<void(std::size_t)>& body,
                double budget = 0.3) {
  std::size_t call = 0;
  std::size_t per_batch = 1;
  for (;;) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < per_batch; ++i) body(call++);
    if (now_s() - t0 >= 1e-3) break;
    per_batch *= 2;
  }
  std::vector<double> samples;
  const double start = now_s();
  while (samples.size() < 5 ||
         (now_s() - start < budget && samples.size() < 100)) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < per_batch; ++i) body(call++);
    samples.push_back((now_s() - t0) / static_cast<double>(per_batch));
  }
  return median(std::move(samples));
}

MachineParams without_faults(MachineParams mp) {
  mp.faults = nullptr;
  return mp;
}

hpmm::SimMachine probe_machine(const Workload& w) {
  hpmm::SimMachine m(
      std::make_shared<hpmm::Hypercube>(hpmm::exact_log2(w.p_max)),
      without_faults(w.params));
  m.enable_tracing(w.params.trace);
  return m;
}

/// Runs every probe op once with its params adjusted by `configure`.
RunTotals replay(const std::vector<SimOp>& ops,
                 const std::function<void(MachineParams&, const SimOp&)>& configure,
                 SpanLog& log, const std::string& span) {
  RunTotals totals;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const SimOp& op = ops[i];
    MachineParams mp = op.params;
    configure(mp, op);
    const hpmm::ParallelMatmul& impl =
        hpmm::default_registry().implementation(op.algo);
    std::optional<hpmm::MatmulResult> r;
    double wall = 0.0;
    {
      ScopedSpan scope(&log, span, i);
      const double t0 = now_s();
      r = impl.run(*op.a, *op.b, op.p, mp);
      wall = now_s() - t0;
    }
    totals.add(wall, *r);
  }
  return totals;
}

/// Runs each configuration `reps` times, interleaved so drift on a shared
/// host spreads evenly; returns per-configuration wall samples and the
/// totals of each configuration's first run.
template <std::size_t N>
std::pair<std::array<std::vector<double>, N>, std::array<RunTotals, N>>
on_off(const std::vector<SimOp>& ops,
       const std::array<std::function<void(MachineParams&, const SimOp&)>, N>& cfgs,
       int reps, SpanLog& log, const std::string& span) {
  std::array<std::vector<double>, N> walls;
  std::array<RunTotals, N> first;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t c = 0; c < N; ++c) {
      const RunTotals t = replay(ops, cfgs[c], log, span);
      walls[c].push_back(t.wall);
      if (rep == 0) first[c] = t;
    }
  }
  return {walls, first};
}

void engine_probes(const Workload& w, SpanLog& log, MetricSink& out) {
  {
    ScopedSpan span(&log, "probe.sim.init", 0);
    out.put("sim.init_ms",
            1e3 * per_call([&](std::size_t) { (void)probe_machine(w); }),
            "ms");
  }

  {
    // One exchange() + receive() round of single-word messages between
    // neighbouring pids spread over the whole machine; at most 256.
    ScopedSpan span(&log, "probe.sim.exchange", 0);
    const std::size_t msgs = std::min<std::size_t>(256, w.p_max / 2);
    const std::size_t stride = w.p_max / msgs;
    hpmm::SimMachine m = probe_machine(w);
    out.put("sim.exchange_round_us",
            1e6 * per_call(
                      [&](std::size_t) {
                        std::vector<hpmm::Message> round;
                        round.reserve(msgs);
                        for (std::size_t i = 0; i < msgs; ++i) {
                          const auto src = static_cast<hpmm::ProcId>(i * stride);
                          round.emplace_back(src, src ^ 1u, 1, Matrix(1, 1));
                        }
                        m.exchange(std::move(round));
                        for (std::size_t i = 0; i < msgs; ++i) {
                          (void)m.receive(
                              static_cast<hpmm::ProcId>(i * stride) ^ 1u, 1);
                        }
                      }),
            "us");
  }

  {
    // Binomial broadcast and reduction of the representative block over a
    // subcube of up to 64 members.
    ScopedSpan span(&log, "probe.sim.collectives", 0);
    const std::size_t g = std::min<std::size_t>(64, w.p_max);
    std::vector<hpmm::ProcId> group(g);
    for (std::size_t i = 0; i < g; ++i) group[i] = static_cast<hpmm::ProcId>(i);
    const Matrix blk = integer_operand(w.block, 7);
    hpmm::SimMachine m = probe_machine(w);
    out.put("sim.collectives.bcast_us",
            1e6 * per_call(
                      [&](std::size_t i) {
                        (void)hpmm::broadcast_binomial(
                            m, group, 0, static_cast<int>(10 + i), blk);
                      }),
            "us");
    const std::vector<Matrix> parts(g, blk);
    out.put("sim.collectives.reduce_us",
            1e6 * per_call(
                      [&](std::size_t i) {
                        (void)hpmm::reduce_binomial(
                            m, group, 0, static_cast<int>(10 + i), parts);
                      }),
            "us");
  }

  {
    ScopedSpan span(&log, "probe.matrix.kernel", 0);
    const Matrix a = integer_operand(w.block, 8), b = integer_operand(w.block, 9);
    Matrix c(w.block, w.block);
    const hpmm::ExecPolicy exec = w.params.exec;
    hpmm::ThreadPool pool(exec.threads);
    const double call = per_call(
        [&](std::size_t) {
          hpmm::multiply_add(a, b, c, exec.kernel,
                             exec.threads > 1 ? &pool : nullptr);
        });
    const double edge = static_cast<double>(w.block);
    out.put("matrix.kernel_block_us", 1e6 * call, "us");
    out.put("matrix.kernel_gmadd_per_s", edge * edge * edge / call / 1e9,
            "Gmadd/s");
  }

  {
    ScopedSpan span(&log, "probe.matrix.abft", 0);
    const Matrix blk = integer_operand(w.block, 10);
    out.put("matrix.abft_us",
            1e6 * per_call(
                      [&](std::size_t) {
                        Matrix aug = hpmm::with_checksums(blk);
                        (void)hpmm::verify_checksums(aug, true);
                      }),
            "us");
  }

  ScopedSpan span(&log, "probe.matrix.autotune", 0);
  std::vector<double> tune;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_s();
    (void)hpmm::autotune_packed();
    tune.push_back(now_s() - t0);
  }
  out.put("matrix.autotune_s", median(tune), "s");
}

void capture_probe(const Workload& w, SpanLog& log, MetricSink& out) {
  enum : std::size_t { kOff, kFull, kTraffic, kTrace, kCausal, kAll, kCount };
  std::array<std::function<void(MachineParams&, const SimOp&)>, kCount> cfgs;
  for (std::size_t c = 0; c < kCount; ++c) {
    cfgs[c] = [c](MachineParams& mp, const SimOp&) {
      mp.faults = nullptr;
      mp.metrics_mode = c == kFull || c == kAll ? hpmm::MetricsMode::kFull
                                                : hpmm::MetricsMode::kAggregate;
      mp.traffic_capture = c == kTraffic || c == kAll
                               ? hpmm::TrafficCapture::kOn
                               : hpmm::TrafficCapture::kOff;
      mp.trace = c == kTrace || c == kAll;
      mp.causal = c == kCausal || c == kAll;
    };
  }
  const auto [walls, first] = on_off(w.probes, cfgs, 5, log, "probe.sim.capture");
  std::array<double, kCount> med{};
  for (std::size_t c = 0; c < kCount; ++c) med[c] = median(walls[c]);
  out.put("sim.capture.off_s", med[kOff], "s");
  out.put("sim.capture.full_s", med[kFull] - med[kOff], "s");
  out.put("sim.capture.traffic_s", med[kTraffic] - med[kOff], "s");
  out.put("sim.capture.trace_s", med[kTrace] - med[kOff], "s");
  out.put("sim.capture.causal_s", med[kCausal] - med[kOff], "s");
  out.put("sim.capture.all_s", med[kAll] - med[kOff], "s");
  // What the hooks cost together beyond the sum of their costs alone.
  out.put("sim.capture.interaction_s",
          med[kAll] - med[kFull] - med[kTraffic] - med[kTrace] -
              med[kCausal] + 3 * med[kOff],
          "s");
  out.put("sim.capture.share", (med[kAll] - med[kOff]) / med[kAll],
          "fraction");
  out.put("sim.capture.trace_events",
          static_cast<double>(first[kAll].trace_events), "count");
  out.put("sim.capture.causal_spans",
          static_cast<double>(first[kAll].causal_spans), "count");
  out.put("sim.capture.causal_bytes",
          static_cast<double>(first[kAll].causal_bytes), "B");
}

void fault_probe(const Workload& w, std::uint64_t seed, SpanLog& log,
                 MetricSink& out) {
  const std::array<std::function<void(MachineParams&, const SimOp&)>, 2> cfgs{
      [](MachineParams& mp, const SimOp&) { mp.faults = nullptr; },
      [seed](MachineParams& mp, const SimOp& op) {
        // Only Cannon and GK carry ABFT checksums.
        mp.faults = inject_plan(seed, op.algo == "cannon" || op.algo == "gk");
      }};
  const auto [walls, first] = on_off(w.probes, cfgs, 3, log, "probe.sim.fault");
  out.put("sim.fault.extra_s", median(walls[1]) - median(walls[0]), "s");
  out.put("sim.fault.retransmissions",
          static_cast<double>(first[1].retransmissions), "count");
  out.put("sim.fault.dropped", static_cast<double>(first[1].dropped), "count");
  out.put("matrix.abft_corrected",
          static_cast<double>(first[1].abft_corrected), "count");
}

void thread_probe(const Workload& w, SpanLog& log, MetricSink& out) {
  const std::array<std::function<void(MachineParams&, const SimOp&)>, 2> cfgs{
      [](MachineParams& mp, const SimOp&) { mp.exec.threads = 1; },
      [](MachineParams& mp, const SimOp&) { mp.exec.threads = 2; }};
  const auto [walls, first] = on_off(w.probes, cfgs, 3, log, "probe.util.threads");
  const double one = median(walls[0]), two = median(walls[1]);
  // Busy time and batches of the two-thread runs' pools.
  out.put("util.thread_pool.busy_s", first[1].pool_busy, "s");
  out.put("util.thread_pool.batches",
          static_cast<double>(first[1].pool_batches), "count");
  out.put("util.thread_pool.busy_frac", first[1].pool_busy / first[1].wall,
          "fraction");
  out.put("util.thread_pool.speedup_2t", one / two, "x");
}

}  // namespace

void layer_probes(const Workload& w, std::uint64_t seed, SpanLog& log,
                  MetricSink& out) {
  engine_probes(w, log, out);
  capture_probe(w, log, out);
  fault_probe(w, seed, log, out);
  thread_probe(w, log, out);
}

RunTotals replay_serve(const Workload& w, const hpmm::ServeReport& report,
                       SpanLog& log, Checker& check) {
  RunTotals totals;
  for (const hpmm::RequestRecord& rec : report.requests) {
    if (rec.outcome != hpmm::ServeOutcome::kOk) continue;
    const hpmm::TenantRequest& req = w.stream[rec.request.id];
    MachineParams mp = hpmm::serve_machine_params(req.machine);
    mp.faults = hpmm::fault_plan_for_attempt(req.faults, rec.attempts - 1);
    const Matrix a = hpmm::request_operand(req.n, req.id, 0xA);
    const Matrix b = hpmm::request_operand(req.n, req.id, 0xB);
    const hpmm::ParallelMatmul& impl =
        hpmm::default_registry().implementation(rec.algorithm);
    check.attempt();
    std::optional<hpmm::MatmulResult> r;
    double wall = 0.0;
    try {
      ScopedSpan span(&log, "algorithms.run", req.id);
      const double t0 = now_s();
      r = impl.run(a, b, req.p, mp);
      wall = now_s() - t0;
    } catch (const std::exception& e) {
      check.fail(1, "request " + std::to_string(req.id) + ": " + e.what());
      continue;
    }
    totals.add(wall, *r);
    ScopedSpan span(&log, "bench.check", req.id);
    if (!(r->c == reference_product(a, b))) {
      check.fail(1, "request " + std::to_string(req.id) +
                        ": replayed product differs from the reference");
    }
  }
  return totals;
}

}  // namespace e2e
