#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/message.hpp"
#include "topology/topology.hpp"

namespace hpmm {

/// Algorithm-based fault tolerance mode for matrix blocks in transit (see
/// matrix/checksum.hpp): off, detect single-element corruption, or detect
/// and correct it.
enum class AbftMode : std::uint8_t { kOff, kDetect, kCorrect };

const char* to_string(AbftMode mode) noexcept;

/// A processor whose clock runs `factor` times slower than nominal: every
/// compute charge and every send it performs takes `factor` times longer.
struct StragglerSpec {
  ProcId pid = 0;
  double factor = 1.0;
};

/// A processor that fail-stops at virtual time `at_time`: any compute or
/// exchange it would participate in once its clock reaches that time raises
/// ProcessorFailure instead.
struct FailStopSpec {
  ProcId pid = 0;
  double at_time = 0.0;
};

/// Declarative, seeded description of everything non-ideal about a machine.
/// A default-constructed plan describes the paper's ideal failure-free
/// machine; SimMachine only instantiates the fault path when active() is
/// true, so a null or all-zero plan is bit-identical to no plan at all.
///
/// Per-message fates (drop / duplicate / delay / corrupt) are drawn from a
/// counter-based hash of (seed, round, src, dst, tag, attempt), so a given
/// plan produces the same faults for the same communication pattern
/// regardless of message ordering within a round.
struct FaultPlan {
  std::uint64_t seed = 0;

  double drop_prob = 0.0;       ///< P(a transmission is lost in flight)
  double duplicate_prob = 0.0;  ///< P(the network delivers an extra copy)
  double delay_prob = 0.0;      ///< P(a delivery is late)
  double delay_factor = 1.0;    ///< extra in-flight latency, x base message cost
  double corrupt_prob = 0.0;    ///< P(one payload word is bit-flipped)

  std::vector<StragglerSpec> stragglers;
  std::vector<FailStopSpec> failstops;

  AbftMode abft = AbftMode::kOff;

  /// Reliable-messaging policy (sim/reliable.hpp). When `reliable` is set,
  /// a dropped transmission costs the sender a timeout of
  /// rto_factor x (message cost), doubling by rto_backoff per retry, then a
  /// retransmission — so drops surface as T_o instead of hung receives.
  bool reliable = true;
  double rto_factor = 2.0;
  double rto_backoff = 2.0;
  unsigned max_retries = 12;

  /// True when any fault mechanism can fire (probabilities, stragglers or
  /// fail-stops). ABFT alone does not make a plan active: it changes what
  /// the algorithms send, not what the machine does to messages.
  bool active() const noexcept;

  /// One-line human-readable scenario description.
  std::string summary() const;
};

/// Counters for every fault event observed during a run; aggregated by
/// SimMachine and reported through RunReport.
struct FaultStats {
  std::uint64_t transmissions_dropped = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t duplicates_delivered = 0;  ///< unreliable mode only
  std::uint64_t deliveries_delayed = 0;
  std::uint64_t elements_corrupted = 0;
  std::uint64_t abft_detected = 0;
  std::uint64_t abft_corrected = 0;
  std::uint64_t messages_lost = 0;  ///< unreliable mode: never delivered

  bool any() const noexcept {
    return transmissions_dropped || retransmissions || duplicates_suppressed ||
           duplicates_delivered || deliveries_delayed || elements_corrupted ||
           abft_detected || abft_corrected || messages_lost;
  }

  /// "drops=.. rexmit=.." fragment for report summaries.
  std::string summary() const;
};

/// Raised when a fail-stopped processor is asked to compute or communicate.
/// Derives from std::runtime_error (not PreconditionError) so resilient
/// harnesses can catch exactly this and re-plan (see core/runner.hpp).
class ProcessorFailure : public std::runtime_error {
 public:
  ProcessorFailure(ProcId pid, double at_time);
  ProcId pid() const noexcept { return pid_; }
  double at_time() const noexcept { return at_time_; }

 private:
  ProcId pid_;
  double at_time_;
};

/// Raised when a run exhausts its virtual-time budget
/// (MachineParams::deadline > 0 and some processor's clock passed it). Like
/// ProcessorFailure it derives from std::runtime_error so serving harnesses
/// can catch exactly this, abandon the run and report deadline_exceeded.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded(ProcId pid, double budget, double at_time);
  ProcId pid() const noexcept { return pid_; }
  /// The budget that was exceeded (MachineParams::deadline).
  double budget() const noexcept { return budget_; }
  /// The clock value that first passed the budget.
  double at_time() const noexcept { return at_time_; }

 private:
  ProcId pid_;
  double budget_;
  double at_time_;
};

/// The fate the network hands one transmission attempt of one message.
struct MessageFate {
  bool dropped = false;
  bool duplicated = false;
  bool corrupted = false;
  double delay = 0.0;  ///< extra in-flight latency, absolute time units
};

/// Deterministic oracle the simulator consults: given a message, the
/// exchange-round counter and the attempt number, decides that
/// transmission's fate. Stateless between calls (pure hashing), so replaying
/// the same communication pattern replays the same faults.
class FaultInjector {
 public:
  explicit FaultInjector(std::shared_ptr<const FaultPlan> plan);

  const FaultPlan& plan() const noexcept { return *plan_; }

  /// Fate of attempt `attempt` of message `m` in exchange round `round`.
  /// `base_cost` scales the delay (delay = delay_factor * base_cost).
  MessageFate fate(const Message& m, std::uint64_t round, unsigned attempt,
                   double base_cost) const;

  /// Clock-rate multiplier of pid (1.0 unless listed as a straggler).
  double slowdown(ProcId pid) const noexcept;

  /// Virtual time at which pid fail-stops, if scheduled.
  std::optional<double> fail_time(ProcId pid) const noexcept;

  /// Index (into the message's payload words) of the element a corrupting
  /// fate flips.
  std::size_t corrupt_word_index(const Message& m, std::uint64_t round,
                                 unsigned attempt) const;

 private:
  std::uint64_t draw(const Message& m, std::uint64_t round, unsigned attempt,
                     std::uint64_t salt) const;

  std::shared_ptr<const FaultPlan> plan_;
};

/// Flip one mantissa bit of payload word `word_index` of `m` (row-major
/// index into the payload). The flipped element differs from the original,
/// so row/column checksums can detect and locate it.
void corrupt_message_word(Message& m, std::size_t word_index);

}  // namespace hpmm
