#pragma once

// Shared declarations of hpmm_e2e, the repository's end-to-end benchmark
// harness (bench/e2e/README.md). It links only the installed
// hpmm::hpmm package, so everything it measures goes through public headers.

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "algorithms/parallel_matmul.hpp"
#include "machine/params.hpp"
#include "matrix/matrix.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "sim/fault.hpp"
#include "sim/report.hpp"

namespace e2e {

using hpmm::Matrix;

/// Seconds on the steady clock since an arbitrary origin.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `values` (0 when empty); the mean of the middle two when even.
double median(std::vector<double> values);

/// Failed checks counted against the operations attempted; keeps the first
/// few explanations for the result line.
class Checker {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n, const std::string& why);
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& reasons() const noexcept { return reasons_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// Named metrics in insertion order, each with its unit.
class MetricSink {
 public:
  void put(const std::string& name, double value, const std::string& unit);
  void write_json(std::ostream& os) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The simulated outcome of one run that must never move: T_p and the exact
/// message and word counts.
struct VirtualResult {
  double t_parallel = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  bool operator==(const VirtualResult&) const = default;
};

/// One ParallelMatmul::run of a workload: formulation, shape, machine and
/// operands. A faulty twin shares its clean op's operands and reference.
struct SimOp {
  std::string label;  ///< "gk n=64 p=262144", " faulty" appended for twins
  std::string algo;   ///< registry name
  std::size_t n = 0;
  std::size_t p = 0;
  hpmm::MachineParams params;
  bool faulty = false;
  std::shared_ptr<const Matrix> a, b;
  std::shared_ptr<const Matrix> reference;  ///< set once before timing
  std::optional<VirtualResult> seen;        ///< first observed outcome
  std::uint64_t runs = 0;                   ///< runs checked so far
};

/// Everything one workload runs, generated from the seed alone.
struct Workload {
  /// Capture and execution settings of the workload's own runs (no faults);
  /// the engine probes build their machines with these.
  hpmm::MachineParams params;
  std::size_t p_max = 0;  ///< largest machine the workload simulates
  std::size_t block = 0;  ///< edge of its representative compute block
  std::vector<SimOp> ops;     ///< one pass (simulation workloads)
  std::vector<SimOp> probes;  ///< clean ops the layer probes replay
  std::vector<hpmm::TenantRequest> stream;  ///< one pass (serve workload)
  hpmm::ServeOptions serve;

  bool is_serve() const noexcept { return !stream.empty(); }
};

std::vector<std::string> workload_names();

/// Builds the named workload's inputs from `seed` (operands, fault-plan
/// seeds, serve stream). Throws std::invalid_argument for unknown names.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The seeded plan of the inject workload's faulty runs and the fault
/// probe: drop 0.02 and, when `abft`, corrupt 0.01 with ABFT correction.
std::shared_ptr<const hpmm::FaultPlan> inject_plan(std::uint64_t seed,
                                                   bool abft);

/// Integer n x n operand with entries in [1, 8]: every product is exact in
/// double precision, and no payload word is 0.0, whose mantissa-flip
/// corruption an ABFT checksum cannot see.
Matrix integer_operand(std::size_t n, std::uint64_t seed);

/// a * b by the bench's own triple loop, independent of the library's
/// kernels so a kernel bug cannot hide in the reference.
Matrix reference_product(const Matrix& a, const Matrix& b);

/// Sums over a set of ParallelMatmul::run calls, read from their public
/// results.
struct RunTotals {
  double wall = 0.0;         ///< the bench's timing of the run calls
  double engine_wall = 0.0;  ///< EngineTelemetry::wall_seconds
  std::uint64_t events = 0, messages = 0, words = 0;
  std::uint64_t inbox_high_water = 0;  ///< max over the runs
  double arena_bytes_per_proc = 0.0;   ///< max over the runs
  std::uint64_t trace_events = 0, causal_spans = 0, causal_bytes = 0;
  std::uint64_t pool_batches = 0;
  double pool_busy = 0.0;
  std::uint64_t retransmissions = 0, dropped = 0, abft_corrected = 0;

  void add(double run_wall, const hpmm::MatmulResult& r);
};

class SpanLog;

/// The traced run's replays and on/off runs (README.md, "Per-layer
/// metrics"): engine, collective, kernel and ABFT replays at the workload's
/// own sizes, and capture, fault and thread on/off runs of its probe ops.
void layer_probes(const Workload& w, std::uint64_t seed, SpanLog& log,
                  MetricSink& out);

/// Replays the final attempt of every ok request of a serve report outside
/// the server, exactly as the server ran it, and checks each product.
RunTotals replay_serve(const Workload& w, const hpmm::ServeReport& report,
                       SpanLog& log, Checker& check);

}  // namespace e2e
