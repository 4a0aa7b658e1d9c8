#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "machine/params.hpp"
#include "sim/fault.hpp"
#include "util/metrics.hpp"

namespace hpmm {

/// Per-processor accounting accumulated by the simulator.
struct ProcStats {
  double clock = 0.0;         ///< local virtual time
  double compute_time = 0.0;  ///< time spent in charged computation
  double comm_time = 0.0;     ///< time spent busy sending/receiving
  double idle_time = 0.0;     ///< time spent waiting for messages/barriers
  std::uint64_t flops = 0;    ///< charged multiply-add operations
  std::uint64_t messages_sent = 0;
  std::uint64_t words_sent = 0;
  std::uint64_t retransmissions = 0;    ///< extra sends forced by drops
  std::uint64_t peak_words_stored = 0;  ///< high-water mark of registered storage
  std::uint64_t words_stored = 0;       ///< currently registered storage
};

/// Additive decomposition of critical-path time into the cost model's terms
/// (DESIGN.md §9): charged computation, message startup (t_s plus hop
/// latency), per-word transfer (t_w, including any contention
/// serialisation), modeled-collective charges, and everything else (retry
/// timeouts, in-flight delays, straggler inflation). On an ideal machine
/// `other` is zero and startup/word reconcile exactly with the analytical
/// models' t_s/t_w terms.
struct PathTerms {
  double compute = 0.0;
  double startup = 0.0;
  double word = 0.0;
  double modeled = 0.0;
  double other = 0.0;

  double total() const noexcept {
    return compute + startup + word + modeled + other;
  }
  PathTerms& operator+=(const PathTerms& o) noexcept {
    compute += o.compute;
    startup += o.startup;
    word += o.word;
    modeled += o.modeled;
    other += o.other;
    return *this;
  }
};

/// Per-(phase, processor) accounting cell kept by the simulator; the same
/// quantities as ProcStats' time/traffic counters, split by the phase that
/// was open when they accrued.
struct PhaseStats {
  double compute_time = 0.0;
  double comm_time = 0.0;
  double idle_time = 0.0;
  std::uint64_t flops = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t words_sent = 0;
};

/// One row of RunReport::phases: a phase's busy-time maxima and traffic
/// totals over processors, plus the slice of the run's critical path it
/// accounts for (the per-phase terms sum to T_p across all rows).
struct PhaseBreakdown {
  std::string name;  ///< "" for activity outside any PhaseScope
  double max_compute_time = 0.0;  ///< per-processor maxima within the phase
  double max_comm_time = 0.0;
  double max_idle_time = 0.0;
  std::uint64_t flops = 0;  ///< totals over all processors
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  PathTerms path;  ///< critical-path slice attributed to this phase
};

/// Engine self-telemetry snapshot taken by SimMachine::report(): how the
/// simulator itself (not the simulated machine) behaved. Host-side
/// diagnostics like arena_bytes — surfaced by `hpmm profile` and
/// as `engine.*` gauges in RunReport::metrics, deliberately NOT serialized
/// by write_json so reports stay byte-comparable across engine versions.
/// The wall-clock fields are nondeterministic by nature; everything else is
/// a pure function of the simulated run.
struct EngineTelemetry {
  std::uint64_t inbox_slots = 0;       ///< arena slots ever allocated
  std::uint64_t inbox_free = 0;        ///< free-list length at report time
  std::uint64_t inbox_pending = 0;     ///< delivered-but-unreceived messages
  std::uint64_t inbox_high_water = 0;  ///< max pending over the run
  /// SimMachine::approx_footprint_bytes(): how much real memory the engine
  /// held for this run.
  std::uint64_t arena_bytes = 0;
  std::uint64_t events = 0;  ///< charged events (computes+messages+modeled)
  double events_per_vtime = 0.0;    ///< events / T_p (virtual-time rate)
  double events_per_wall_sec = 0.0; ///< events / host wall seconds
  double wall_seconds = 0.0;        ///< host wall time since construction
  std::uint64_t pool_threads = 0;   ///< ThreadPool size (0 = no pool)
  std::uint64_t pool_batches = 0;   ///< parallel_for invocations
  std::uint64_t pool_items = 0;     ///< indices dispatched across batches
  double pool_busy_seconds = 0.0;   ///< caller wall time inside the pool
  std::uint64_t causal_spans = 0;   ///< spans in the span log (trace/causal)
  std::uint64_t causal_bytes = 0;   ///< span log arena bytes
};

/// One fault-bearing span on the measured critical path: what kind of
/// activity, where, and how much of T_p the fault slice accounts for.
struct CausalSpanNote {
  std::string kind;  ///< "compute" | "send" | "retry" | "transfer" | "modeled"
  std::uint32_t pid = 0;
  std::string phase;  ///< "" for activity outside any PhaseScope
  double start = 0.0;
  double end = 0.0;
  double overhead = 0.0;  ///< fault-attributable slice of the span
};

/// Summary of the causal span DAG (sim/causal.hpp) recorded for a run with
/// MachineParams::causal set. `measured` is the critical path walked from
/// the happens-before DAG itself — independent of the chain_ bookkeeping —
/// and must reconcile with RunReport::critical_path to 1e-9 when the DAG is
/// complete (trace_sample >= 1). Like EngineTelemetry, never serialized by
/// write_json.
struct CausalSummary {
  bool enabled = false;
  bool complete = false;  ///< every processor sampled; measured path valid
  std::uint64_t path_spans = 0;  ///< spans on the measured critical path
  PathTerms measured;            ///< critical path summed from the DAG
  double fault_overhead = 0.0;   ///< fault slice of the measured path
  std::vector<CausalSpanNote> fault_spans;  ///< path spans with overhead > 0
};

/// Outcome of one simulated parallel run: the quantities of Section 2.
struct RunReport {
  std::string algorithm;
  std::size_t n = 0;  ///< matrix order
  std::size_t p = 0;  ///< processors
  MachineParams params;
  double t_parallel = 0.0;  ///< T_p = max over processor clocks
  double w_useful = 0.0;    ///< problem size W = n^3 (multiply-add units)

  double max_compute_time = 0.0;
  double max_comm_time = 0.0;
  double max_idle_time = 0.0;
  std::uint64_t total_flops = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_words = 0;
  std::uint64_t max_peak_words = 0;

  /// Engine self-telemetry (never serialized; see EngineTelemetry).
  EngineTelemetry engine;

  /// Causal span DAG summary (never serialized; empty unless
  /// MachineParams::causal was set — see CausalSummary).
  CausalSummary causal;

  /// Snapshot of the machine's MetricsRegistry at report time, with the
  /// engine.* telemetry gauges added — what `--metrics-out` renders as
  /// Prometheus text / OTLP JSON (util/export.hpp). Never serialized by
  /// write_json.
  MetricsRegistry metrics;

  /// Fault events observed during the run (all zero on an ideal machine).
  FaultStats faults;

  std::vector<ProcStats> procs;  ///< per-processor detail (optional to keep)

  /// Phase-attributed breakdown (one row per phase the algorithm opened,
  /// plus a leading "" row when unattributed activity exists). Empty only
  /// for runs that never touched the machine.
  std::vector<PhaseBreakdown> phases;

  /// Critical-path decomposition of T_p itself: the sum of phases[i].path,
  /// satisfying critical_path.total() == t_parallel.
  PathTerms critical_path;

  /// T_o(W, p) = p * T_p - W (Section 2).
  double total_overhead() const noexcept {
    return static_cast<double>(p) * t_parallel - w_useful;
  }
  /// S = W / T_p.
  double speedup() const noexcept {
    return t_parallel > 0.0 ? w_useful / t_parallel : 0.0;
  }
  /// E = S / p.
  double efficiency() const noexcept {
    return p > 0 ? speedup() / static_cast<double>(p) : 0.0;
  }

  /// One-line human-readable summary.
  std::string summary() const;

  /// Complete machine-readable report as one JSON object (machine
  /// parameters, timings, derived metrics, per-phase table, critical-path
  /// terms, faults when any). `hpmm run --format=json` prints exactly this.
  void write_json(std::ostream& os) const;
};

}  // namespace hpmm
