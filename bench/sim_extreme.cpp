// Extreme-scale engine sweep (DESIGN.md §12): google-benchmark harness for
// the arena/sparse-capture simulator at p ~ 10^3 .. 10^6 virtual processors.
// Two families:
//
//   * BM_ExchangeRound: raw engine throughput — butterfly rounds between a
//     fixed number of participants on machines of growing p. Events/sec is
//     messages simulated per wall-second; bytes_per_proc is the engine's
//     resident accounting footprint divided by p (flat footprint = the
//     tentpole invariant).
//   * BM_GkEndToEnd / BM_DnsEndToEnd: whole paper algorithms at the finest
//     grain p = n^3 (aggregate capture, traffic matrix off) — the operating
//     points the dense engine could not reach.
//
// CI publishes the JSON (--benchmark_out=BENCH_sim.json) as an artifact.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "algorithms/dns.hpp"
#include "algorithms/gk.hpp"
#include "matrix/generate.hpp"
#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"

namespace {

using namespace hpmm;

MachineParams extreme_params() {
  MachineParams mp = machines::ncube2();
  mp.metrics_mode = MetricsMode::kAggregate;
  mp.traffic_capture = TrafficCapture::kOff;
  return mp;
}

// One exchange round of `kMsgs` single-word messages between neighbouring
// pids spread across the whole machine. Wall time per round must not grow
// with p: rounds are O(participants), clocks are lazy.
void BM_ExchangeRound(benchmark::State& state) {
  const auto dim = static_cast<unsigned>(state.range(0));
  const std::size_t p = std::size_t{1} << dim;
  constexpr std::size_t kMsgs = 256;
  SimMachine m(std::make_shared<Hypercube>(dim), extreme_params());
  const std::size_t stride = p / kMsgs;
  std::int64_t messages = 0;
  for (auto _ : state) {
    std::vector<Message> msgs;
    msgs.reserve(kMsgs);
    for (std::size_t i = 0; i < kMsgs; ++i) {
      const auto src = static_cast<ProcId>(i * stride);
      msgs.emplace_back(src, src ^ 1u, 1, Matrix(1, 1));
    }
    m.exchange(std::move(msgs));
    for (std::size_t i = 0; i < kMsgs; ++i) {
      benchmark::DoNotOptimize(m.receive(static_cast<ProcId>(i * stride) ^ 1u, 1));
    }
    messages += static_cast<std::int64_t>(kMsgs);
  }
  state.SetItemsProcessed(messages);  // items/sec == simulated messages/sec
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(messages),
                         benchmark::Counter::kIsRate);
  state.counters["bytes_per_proc"] = benchmark::Counter(
      static_cast<double>(m.approx_footprint_bytes()) /
      static_cast<double>(p));
  state.counters["p"] = benchmark::Counter(static_cast<double>(p));
}

// Whole-algorithm runs at p = n^3 (1x1 blocks): one iteration simulates the
// complete distribute/broadcast/multiply/reduce pipeline. Events counts
// every charged simulator event (messages + per-processor flop charges).
template <typename Algo>
void BM_EndToEnd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t p = n * n * n;
  Rng rng(42);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  const MachineParams mp = extreme_params();
  std::uint64_t messages = 0, footprint = 0;
  double t_parallel = 0.0;
  for (auto _ : state) {
    const MatmulResult res = Algo().run(a, b, p, mp);
    benchmark::DoNotOptimize(res.report.t_parallel);
    messages += res.report.total_messages;
    footprint = res.report.engine.arena_bytes;
    t_parallel = res.report.t_parallel;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
  state.counters["bytes_per_proc"] = benchmark::Counter(
      static_cast<double>(footprint) / static_cast<double>(p));
  state.counters["p"] = benchmark::Counter(static_cast<double>(p));
  state.counters["t_parallel"] = benchmark::Counter(t_parallel);
}

void BM_GkEndToEnd(benchmark::State& s) { BM_EndToEnd<GkAlgorithm>(s); }
void BM_DnsEndToEnd(benchmark::State& s) { BM_EndToEnd<DnsAlgorithm>(s); }

// p = 2^10 .. 2^21: the round cost must stay flat while p grows 2048x.
BENCHMARK(BM_ExchangeRound)
    ->DenseRange(10, 19, 3)
    ->Arg(21)
    ->Unit(benchmark::kMicrosecond);
// n = 16 -> p = 4096; n = 32 -> p = 32768; n = 64 -> p = 262144 (>= 10^5).
BENCHMARK(BM_GkEndToEnd)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DnsEndToEnd)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
