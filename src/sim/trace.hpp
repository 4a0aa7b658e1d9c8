#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "topology/topology.hpp"

namespace hpmm {

/// One timed activity on one simulated processor: the timeline view of one
/// span of a SimMachine's span log, recorded when tracing is enabled.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kCompute,      ///< charged multiply-add work
    kSend,         ///< busy transmitting
    kWait,         ///< idle waiting for an arrival or barrier
    kModeledComm,  ///< a modeled collective's charged span
    kRetry,        ///< timeout + retransmission forced by a dropped message
  };
  ProcId pid = 0;
  Kind kind = Kind::kCompute;
  double start = 0.0;
  double end = 0.0;
  /// Index into Trace::phase_names(); 0 is the unattributed default phase.
  std::uint16_t phase = 0;

  double duration() const noexcept { return end - start; }
};

const char* to_string(TraceEvent::Kind kind) noexcept;

/// A recorded execution: per-processor timelines plus summary queries and an
/// ASCII Gantt rendering — the visual counterpart of the RunReport numbers.
class Trace {
 public:
  Trace() = default;
  Trace(std::size_t procs, std::vector<TraceEvent> events);
  /// As above with the phase-name table the events' phase ids index into;
  /// entry 0 names the unattributed default phase (conventionally "").
  Trace(std::size_t procs, std::vector<TraceEvent> events,
        std::vector<std::string> phase_names);

  std::size_t procs() const noexcept { return procs_; }
  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  bool empty() const noexcept { return events_.empty(); }

  const std::vector<std::string>& phase_names() const noexcept {
    return phase_names_;
  }
  /// Name of one phase id (validated).
  const std::string& phase_name(std::uint16_t phase) const;

  /// Events of one processor, in time order.
  std::vector<TraceEvent> events_of(ProcId pid) const;

  /// End of the latest event (the traced T_p).
  double span() const noexcept;

  /// Total time pid spent in `kind`.
  double total(ProcId pid, TraceEvent::Kind kind) const;

  /// Fraction of [0, span()] that pid spent computing.
  double utilization(ProcId pid) const;

  /// ASCII Gantt chart: one row per processor, `width` time bins; the
  /// dominant activity of each bin is drawn as #=compute, >=send, .=wait,
  /// ~=modeled comm, !=retry, space=nothing recorded.
  void print_gantt(std::ostream& os, std::size_t width = 72,
                   std::size_t max_procs = 32) const;

  /// Chrome-trace / Perfetto JSON export: one complete "X" duration event
  /// per TraceEvent (tid = simulated processor, name = phase when tagged,
  /// kind otherwise; phase under "args"), loadable in
  /// chrome://tracing or ui.perfetto.dev.
  void write_chrome(std::ostream& os) const;

 private:
  std::size_t procs_ = 0;
  std::vector<TraceEvent> events_;
  std::vector<std::string> phase_names_{std::string()};
};

}  // namespace hpmm
