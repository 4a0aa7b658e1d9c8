#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "matrix/kernels.hpp"

namespace hpmm {

struct FaultPlan;  // sim/fault.hpp — optional non-ideal machine behaviour

/// How many ports of a processor may communicate at once (Section 7).
enum class PortModel : std::uint8_t {
  kOnePort,  ///< one send + one matching receive at a time (default model)
  kAllPort   ///< simultaneous communication on all log p channels
};

/// Message switching discipline. The paper assumes cut-through routing, where
/// a message between non-adjacent processors costs (to first order) the same
/// as between neighbours; store-and-forward multiplies the per-word term by
/// the hop count.
enum class Routing : std::uint8_t { kCutThrough, kStoreAndForward };

/// Link-contention treatment. The paper ignores contention (e.g. Cannon's
/// alignment is "one-to-one communication along non-conflicting paths");
/// kLinkLoad scales each message's per-word time by the largest number of
/// simultaneous messages sharing a link on its route — an ablation knob for
/// quantifying what that assumption hides.
enum class Contention : std::uint8_t { kIgnore, kLinkLoad };

/// How much accounting the simulator captures per run (DESIGN.md §12).
/// kFull keeps everything: per-(phase, processor) cells, critical-path
/// chains and message histograms. kAggregate keeps only whole-run and
/// per-phase *totals* — O(phases) instead of O(phases x p) memory — which
/// is what makes p ~ 10^6 runs fit; per-phase maxima and the critical-path
/// decomposition read as zero in the report. Simulated clocks and results
/// are bit-identical in both modes.
enum class MetricsMode : std::uint8_t { kFull, kAggregate };

/// Whether exchange() accumulates the per-(src, dst) traffic matrix.
/// kAuto records it only when p <= MachineParams::kTrafficAutoThreshold
/// (small runs keep their existing behaviour; extreme-scale runs skip the
/// O(messages) hash-map churn and its memory). Timing is unaffected.
enum class TrafficCapture : std::uint8_t { kAuto, kOn, kOff };

/// Technology parameters of a machine, normalized so that one floating-point
/// multiply-add takes one time unit (Section 2). A message of m words between
/// adjacent processors costs t_s + t_w * m; cut-through adds t_h per hop.
struct MachineParams {
  double t_s = 0.0;  ///< message startup time, in multiply-add units
  double t_w = 1.0;  ///< per-word transfer time, in multiply-add units
  double t_h = 0.0;  ///< per-hop latency under cut-through routing (paper: ~0)
  PortModel ports = PortModel::kOnePort;
  Routing routing = Routing::kCutThrough;
  Contention contention = Contention::kIgnore;
  /// Record per-processor event timelines during simulated runs (returned
  /// via MatmulResult::trace; see sim/trace.hpp).
  bool trace = false;
  /// Fault-injection plan (sim/fault.hpp). Null — or a plan whose active()
  /// is false — reproduces the paper's ideal failure-free machine exactly
  /// (bit-identical simulated times).
  std::shared_ptr<const FaultPlan> faults;
  /// Host execution policy for the real local numerics behind compute
  /// charges (kernel choice + host thread count). Wall-clock only: the
  /// simulated times and counters are bit-identical for every setting
  /// (see DESIGN.md "Local compute substrate").
  ExecPolicy exec;
  /// Virtual-time budget for one run: when > 0, the simulator raises
  /// DeadlineExceeded (sim/fault.hpp) as soon as any processor's clock
  /// passes this time, aborting the run. 0 disables the check entirely —
  /// runs are bit-identical to a machine without the field. Used by the
  /// serving layer (DESIGN.md "Serving mode & robustness envelope").
  double deadline = 0.0;
  /// Capture sparsity for extreme-scale runs (DESIGN.md §12). Defaults
  /// reproduce the historical full-capture behaviour bit for bit.
  MetricsMode metrics_mode = MetricsMode::kFull;
  TrafficCapture traffic_capture = TrafficCapture::kAuto;
  /// Fraction of processors whose trace events are recorded when tracing is
  /// on, selected by a seeded per-pid hash so samples are reproducible and
  /// rank-independent. 1.0 (the default) records everyone — bit-identical
  /// to the pre-sampling tracer; 0.0 records no one.
  double trace_sample = 1.0;
  std::uint64_t trace_sample_seed = 0;
  /// Record the happens-before span DAG during the run (sim/causal.hpp),
  /// sampled per-processor by trace_sample/trace_sample_seed exactly like
  /// the timeline tracer. Off by default: no causal hooks run and simulated
  /// times, traces and reports are bit-identical to a machine without the
  /// field.
  bool causal = false;
  /// kAuto traffic capture stays on up to this many processors.
  static constexpr std::size_t kTrafficAutoThreshold = 65536;
  std::string label = "custom";

  /// Time for an m-word message traversing `hops` links.
  double message_time(double words, unsigned hops = 1) const noexcept {
    if (hops == 0) return 0.0;
    if (routing == Routing::kStoreAndForward) {
      return (t_s + t_w * words) * static_cast<double>(hops);
    }
    return t_s + t_h * static_cast<double>(hops) + t_w * words;
  }

  /// Copy of these parameters with processors k times faster: communication
  /// costs grow k-fold relative to the (new, smaller) unit of computation
  /// (Section 8).
  MachineParams with_cpu_speedup(double k) const;

  /// Normalize physical per-operation timings (any consistent unit) into
  /// multiply-add units: t_s = startup / flop, t_w = per_word / flop.
  static MachineParams from_physical(double flop_time, double startup_time,
                                     double per_word_time,
                                     std::string label = "custom");
};

/// Named machine models used throughout the paper.
namespace machines {

/// nCUBE2-like hypercube: t_w = 3, t_s = 150 (Figure 1).
MachineParams ncube2();

/// Hypothetical near-future hypercube: t_w = 3, t_s = 10 (Figure 2).
MachineParams future_hypercube();

/// CM-2-like SIMD machine: t_w = 3, t_s = 0.5 (Figure 3).
MachineParams simd_cm2();

/// CM-5 as measured in Section 9: flop 1.53 us, startup 380 us, 1.8 us per
/// 4-byte word -> t_s = 248.37, t_w = 1.176.
MachineParams cm5_measured();

/// Idealized machine with free communication; useful in tests.
MachineParams ideal();

/// A preset as the CLI and serve scripts name it.
struct Preset {
  const char* name;
  MachineParams (*make)();
};

/// Every named preset, in `hpmm machines` order: ncube2, future, cm2, cm5,
/// ideal.
std::span<const Preset> presets();

/// The preset names joined by `separator`, in presets() order.
std::string preset_names(const std::string& separator);

/// The preset called `name`; throws PreconditionError naming the presets
/// for anything else.
MachineParams preset(const std::string& name);

}  // namespace machines

}  // namespace hpmm
