#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "machine/params.hpp"
#include "matrix/kernels.hpp"
#include "sim/causal.hpp"
#include "sim/fault.hpp"
#include "sim/message.hpp"
#include "sim/report.hpp"
#include "sim/trace.hpp"
#include "topology/topology.hpp"
#include "util/metrics.hpp"

namespace hpmm {

/// Virtual-time multicomputer simulator.
///
/// Each of the p processors has a local clock, an inbox of delivered
/// messages, and accounting counters. Algorithms advance the machine through
/// two primitives:
///
///  * compute(pid, flops)   — charges `flops` multiply-add units to pid
///  * exchange(messages)    — one synchronous communication round; every
///                            message of m words costs t_s + t_w * m
///                            (Section 2's model; multi-hop and
///                            store-and-forward per MachineParams)
///
/// Timing rule for a round (see DESIGN.md): a sender is busy for the full
/// duration of each message it sends; a receiver's clock advances to
/// max(own availability, arrival), with the gap recorded as idle time.
/// Under PortModel::kOnePort a processor may send at most one message and
/// receive at most one message per round (a simultaneous send + receive is
/// allowed — the cost a wrap-around shift is charged in the paper). Under
/// kAllPort up to ports_per_proc() sends/receives proceed concurrently.
///
/// Real data (matrix blocks) moves with every message, so the numerical
/// result of a simulated algorithm can be checked exactly; time is the
/// paper's analytical model, applied message by message.
///
/// When MachineParams::faults carries an active FaultPlan, exchange()
/// additionally consults a deterministic FaultInjector: transmissions may be
/// dropped (and retried per the plan's reliable-messaging policy, the
/// timeouts and retransmissions charged in virtual time), duplicated
/// (suppressed by receiver-side de-duplication), delayed in flight, or have
/// one payload word bit-flipped; stragglers run compute and sends slower by
/// a clock-rate factor; fail-stopped processors raise ProcessorFailure from
/// any compute/exchange they would participate in. With no plan — or an
/// all-zero one — none of these paths execute and simulated times are
/// bit-identical to the ideal machine's.
class SimMachine {
 public:
  SimMachine(std::shared_ptr<const Topology> topology, MachineParams params);
  ~SimMachine();  // out of line: ThreadPool is forward-declared here
  SimMachine(SimMachine&&) noexcept;
  SimMachine& operator=(SimMachine&&) noexcept;

  std::size_t procs() const noexcept { return topology_->size(); }
  const Topology& topology() const noexcept { return *topology_; }
  const MachineParams& params() const noexcept { return params_; }

  /// Charge `flops` multiply-add units of useful computation to pid.
  void compute(ProcId pid, double flops);

  /// Convenience: run C += A * B on pid's data with the machine's
  /// ExecPolicy kernel (threading inside the kernel when exec.threads > 1)
  /// and charge its exact multiply-add count.
  void compute_multiply_add(ProcId pid, const Matrix& a, const Matrix& b,
                            Matrix& c);

  /// As above with an explicit kernel override.
  void compute_multiply_add(ProcId pid, const Matrix& a, const Matrix& b,
                            Matrix& c, Kernel kernel);

  /// One virtual processor's deferred local compute phase:
  /// C += sum_i A_i * B_i, the products applied in order (the summation
  /// order is part of the numerical contract).
  struct ComputeTask {
    ProcId pid = 0;
    Matrix* c = nullptr;
    std::vector<std::pair<const Matrix*, const Matrix*>> products;
  };

  /// Run a whole compute phase — one task per virtual processor, outputs
  /// disjoint — and charge each pid exactly as the equivalent sequence of
  /// compute_multiply_add calls would, in task order. The real numerics run
  /// concurrently on the host thread pool when exec.threads > 1 (virtual
  /// processors are independent between communication rounds), but the
  /// virtual-time accounting is serial and order-preserving, so simulated
  /// clocks, counters, traces and results are bit-identical for every
  /// thread count. ProcessorFailure surfaces exactly where the serial loop
  /// would raise it; numerics of later tasks may already have run by then,
  /// which is unobservable because a failed attempt's outputs are discarded.
  void compute_multiply_add_batch(const std::vector<ComputeTask>& tasks);

  /// One synchronous communication round. Port-model constraints are
  /// validated; payloads are delivered to the destinations' inboxes.
  void exchange(std::vector<Message> messages);

  /// Pop the (unique) pending message with `tag` from pid's inbox.
  /// Throws PreconditionError if absent.
  Message receive(ProcId pid, int tag);

  /// True when pid has a pending message with `tag`.
  bool has_message(ProcId pid, int tag) const;

  /// Number of undelivered messages across all inboxes (0 after a clean run).
  std::size_t pending_messages() const noexcept;

  /// The "clean run" invariant: every delivered message was received. Throws
  /// InternalError naming the first leftover message's tag and destination —
  /// algorithms call this before assembling their report.
  void assert_clean_run() const;

  /// Advance every processor to the maximum clock (a barrier); the gaps are
  /// recorded as idle time. Returns the barrier time.
  double synchronize();

  /// Advance every member of `group` to the group's max clock plus `time`,
  /// recorded as communication time. This is the charging primitive for
  /// *modeled* collectives (e.g. Johnsson-Ho broadcast) whose closed-form
  /// cost we take from the literature instead of simulating hop by hop.
  /// `words_per_member` books the data volume the collective moves through
  /// each member into the word/message accounting (one message per member
  /// when non-zero), so modeled phases still show up in total_words and the
  /// communication lower-bound oracle; the p x p traffic matrix is left
  /// untouched (no pairwise message ever exists).
  void charge_group_comm(std::span<const ProcId> group, double time,
                         std::uint64_t words_per_member = 0);

  /// Storage accounting hooks: algorithms register the blocks a processor
  /// holds so memory-efficiency claims (Sections 4.1/4.4) can be checked.
  void note_alloc(ProcId pid, std::uint64_t words);
  void note_free(ProcId pid, std::uint64_t words);

  double clock(ProcId pid) const;
  const ProcStats& stats(ProcId pid) const;

  /// Fault events observed so far (all zero without an active FaultPlan).
  const FaultStats& fault_stats() const noexcept { return fault_stats_; }

  /// Record an ABFT checksum verification outcome (called by algorithms
  /// running with FaultPlan::abft enabled; see matrix/checksum.hpp).
  void note_abft(bool detected, bool corrected);

  /// The injector driving this machine's faults, or null when ideal.
  const FaultInjector* fault_injector() const noexcept {
    return injector_.get();
  }

  /// T_p: the maximum clock over all processors.
  double time() const noexcept;

  /// --- Phase attribution (DESIGN.md §9) ------------------------------
  ///
  /// Algorithms bracket their paper-named stages ("align", "shift",
  /// "broadcast", ...) with begin_phase/end_phase — normally via the
  /// PhaseScope RAII wrapper — and every trace event, per-phase accounting
  /// cell and critical-path term accrued inside the bracket is tagged with
  /// that phase. Scopes nest (the innermost wins) and reusing a name
  /// accumulates into the same phase. Attribution is pure metadata: clocks,
  /// results and traces are bit-identical with and without phases.
  using PhaseId = std::uint16_t;

  /// Open a phase; returns its id (interned by name, 0 is reserved for
  /// "no phase"). Prefer PhaseScope.
  PhaseId begin_phase(std::string_view name);

  /// Close the innermost open phase (throws when none is open).
  void end_phase();

  /// Id of the innermost open phase, 0 when none.
  PhaseId current_phase() const noexcept {
    return phase_stack_.empty() ? PhaseId{0} : phase_stack_.back();
  }

  /// Interned phase names; entry 0 is the "" default.
  const std::vector<std::string>& phase_names() const noexcept {
    return phase_names_;
  }

  /// --- Metrics -------------------------------------------------------

  /// The machine's metrics registry. exchange() feeds the message-size,
  /// hop-count and per-hop-latency histograms plus "sim.*" counters;
  /// collectives add "collective.*" invocation counters; algorithms and
  /// tools may register their own instruments.
  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Words moved per directed processor pair over the whole run. Empty when
  /// traffic capture is off (TrafficCapture::kOff, or kAuto above the p
  /// threshold); traffic_captured() says which.
  const TrafficMatrix& traffic() const noexcept { return traffic_; }

  /// Whether exchange() is accumulating the traffic matrix this run.
  bool traffic_captured() const noexcept { return traffic_on_; }

  /// The happens-before span DAG recorded this run, or null unless
  /// MachineParams::causal was set (sim/causal.hpp). It is the DAG view of
  /// the run's span log. Recording honours the trace_sample gate and is
  /// independent of the metrics capture mode, so the DAG is byte-identical
  /// across kFull/kAggregate and host threads.
  const CausalGraph* causal() const noexcept {
    return params_.causal ? log_.get() : nullptr;
  }

  /// Approximate resident bytes of the simulator state itself: processor
  /// stats, inboxes (including buffered payload words), phase/chain
  /// accounting, round scratch, the span log and the traffic matrix.
  /// Intended for the bytes-per-processor scalability sweeps (bench/
  /// sim_extreme.cpp); container overheads are estimated, not measured.
  std::uint64_t approx_footprint_bytes() const noexcept;

  /// Assemble a RunReport for a problem of useful work `w_useful` ( = n^3).
  RunReport report(std::string algorithm, std::size_t n, double w_useful,
                   bool keep_proc_stats = false) const;

  /// Record per-processor timelines (compute/send/wait spans) for Gantt
  /// rendering and utilization analysis. Off by default (zero overhead).
  /// Turning it on keeps the span log and adds barrier and group waits to
  /// it; turning it off without MachineParams::causal drops the log.
  void enable_tracing(bool on = true);
  bool tracing() const noexcept { return tracing_; }

  /// The recorded timeline: the timeline view of the span log (empty
  /// unless enable_tracing() was called before the run).
  Trace trace() const;

  /// Reset clocks, counters, inboxes and the trace.
  void reset();

 private:
  double message_cost(const Message& m, unsigned contention_load) const;
  /// The startup slice (t_s plus hop latency) of a message's base cost.
  double message_startup(const Message& m) const;
  /// pid's accounting cell for the currently open phase: its own cell
  /// under full capture, the phase's whole-machine total under aggregate.
  PhaseStats& phase_cell(ProcId pid);
  /// pid's critical-path cell for the currently open phase.
  PathTerms& chain_cell(ProcId pid);
  /// Seeded per-pid trace-sampling decision (stateless splitmix64 hash).
  bool trace_sampled(ProcId pid) const noexcept;
  /// Whether the span log records pid's intervals this run.
  bool logged(ProcId pid) const noexcept {
    return log_ != nullptr && (trace_all_ || trace_sampled(pid));
  }

  using Kind = CausalGraph::Kind;
  /// What an interval contributes beyond its time: its critical-path
  /// terms, the fault slice of its span and, for a transfer or wait, the
  /// span it waited on.
  struct Explanation {
    PathTerms terms;
    double fault_overhead = 0.0;
    CausalGraph::Edge from;
  };
  /// The one write path of a clock advance: pid's clock moves to `end`,
  /// `duration` lands in the time field of `kind` (compute; comm for send
  /// and modeled; idle for retry, transfer and wait) of pid's ProcStats and
  /// phase cell. A positive duration is also explained: its terms go to
  /// pid's chain cell (full capture; a transfer or wait adopts a chain
  /// instead) and one span goes to the log when pid is sampled (a wait
  /// only with a trace on). `explain()` returns the Explanation and runs
  /// only then, so a run that keeps neither never reads the per-message
  /// state behind it. Returns the phase cell for flops/messages/words.
  template <class Explain>
  PhaseStats& charge(ProcId pid, Kind kind, double start, double end,
                     double duration, const Explain& explain);
  /// What a processor that waited for a barrier or group adopts: the chain
  /// (full capture) and head of the first of `pids` whose clock is `t`.
  struct Adoption {
    std::vector<PathTerms> chain;
    CausalGraph::Edge edge;
  };
  template <class Pids>
  Adoption adoption_at(const Pids& pids, double t) const;
  /// Charge pid's wait until `t` (if any) and adopt `a`.
  void wait_until(ProcId pid, double t, const Adoption& a);
  /// Append a delivered message to dst's inbox queue in the flat arena.
  void inbox_push(ProcId dst, Message&& m);
  /// Throws ProcessorFailure if pid's clock has reached its fail-stop time.
  void check_alive(ProcId pid) const;
  /// Throws DeadlineExceeded if a deadline is set and pid's clock passed it.
  /// Called after every clock advance; a zero deadline disables the check
  /// (bit-identical behaviour to a machine without one).
  void check_deadline(ProcId pid) const {
    if (params_.deadline > 0.0 && stats_[pid].clock > params_.deadline) {
      throw DeadlineExceeded(pid, params_.deadline, stats_[pid].clock);
    }
  }

  std::shared_ptr<const Topology> topology_;
  MachineParams params_;
  /// Host threads for local numerics; non-null only when exec.threads > 1.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<ProcStats> stats_;

  /// --- Flat arena inboxes (DESIGN.md §12) ----------------------------
  ///
  /// Delivered-but-unreceived messages live in one shared slot arena;
  /// each destination's queue is an index-linked list through it (FIFO, so
  /// receive() scans in exactly the order the old per-processor deques
  /// held). Freed slots recycle through a free list, so steady-state
  /// delivery allocates nothing and an idle processor costs two 4-byte
  /// indices instead of a ~500-byte empty deque — the difference between
  /// p ~ 10^6 fitting in memory or not.
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  struct InboxSlot {
    Message msg;
    std::uint32_t next = kNilSlot;
  };
  std::vector<InboxSlot> inbox_slots_;
  std::uint32_t inbox_free_ = kNilSlot;  ///< head of the free-slot list
  std::vector<std::uint32_t> inbox_head_;  ///< per pid; kNilSlot = empty
  std::vector<std::uint32_t> inbox_tail_;
  std::size_t pending_ = 0;  ///< undelivered messages across all inboxes
  /// Engine self-telemetry (EngineTelemetry in report.hpp): inbox
  /// high-water mark, charged-event count, and the host wall clock they
  /// rate against.
  std::uint64_t pending_high_water_ = 0;
  std::uint64_t events_ = 0;
  std::chrono::steady_clock::time_point wall_start_;

  /// --- Per-round scratch -----------------------------------------------
  ///
  /// exchange() used to allocate ~10 O(p) vectors per call and walk all p
  /// processors every round; at p ~ 10^6 that is the whole runtime. These
  /// arrays are allocated once, only entries of processors that actually
  /// participate in the current round are touched, and the participant
  /// list drives their cleanup at the next round's entry — exchange() is
  /// O(participants + messages) per call, and untouched processors' clocks
  /// stay lazily where they were.
  struct RoundScratch {
    std::vector<std::uint32_t> sends, recvs;          // per pid
    std::vector<double> send_busy, send_span, arrival_max;  // per pid
    /// Message index (into the round's message vector) that set the entry;
    /// kNoMessage when none. 64-bit so event counts can't wrap at scale.
    std::vector<std::size_t> arrival_msg, busiest_msg;  // per pid
    std::vector<std::uint8_t> in_round;  // per pid participation flag
    /// Touched pids, sorted ascending for the round's processor loops.
    /// Survives until the next round's entry, which uses it to clear the
    /// per-pid entries above — entry-time cleanup, so an exception thrown
    /// mid-round can't poison the following round.
    std::vector<ProcId> participants;
    // Per-message scratch, sized to the round's message count.
    std::vector<unsigned> load_factor;
    std::vector<std::uint8_t> deliver, deliver_dup;
    std::vector<double> msg_startup, msg_word, msg_other;
    /// Fault-free cost of each message: what send and transfer spans'
    /// fault slices are measured against.
    std::vector<double> msg_ideal;
    /// Adopted chains, parallel to `participants` (full capture only).
    std::vector<std::vector<PathTerms>> adopted;
  };
  static constexpr std::size_t kNoMessage = static_cast<std::size_t>(-1);
  RoundScratch scratch_;

  bool tracing_ = false;
  /// trace_sample >= 1: record every processor (no hashing on the hot
  /// path). Otherwise trace_threshold_ is the 64-bit acceptance bound.
  bool trace_all_ = true;
  std::uint64_t trace_threshold_ = 0;
  /// Non-null only when params_.faults is an active plan; see fault.hpp.
  std::unique_ptr<FaultInjector> injector_;
  FaultStats fault_stats_;
  std::uint64_t exchange_round_ = 0;

  std::vector<std::string> phase_names_{std::string()};
  std::vector<PhaseId> phase_stack_;
  /// Aggregate capture mode (MetricsMode::kAggregate): keep per-phase
  /// *totals* only — phase_totals_ replaces phase_stats_ and chain_, and
  /// the message histograms are skipped. O(phases) accounting memory.
  bool aggregate_ = false;
  std::vector<PhaseStats> phase_totals_;
  /// Whether the traffic matrix is being accumulated (TrafficCapture).
  bool traffic_on_ = true;
  /// [phase][pid] busy-time/traffic accounting, lazily sized per phase.
  std::vector<std::vector<PhaseStats>> phase_stats_;
  /// [pid][phase] critical-path decomposition: each processor carries the
  /// phase-resolved cost terms of the dependency chain that produced its
  /// clock (waiting receivers and barrier laggards adopt the chain of the
  /// processor they waited on), so Sum over phases == clock for every pid.
  std::vector<std::vector<PathTerms>> chain_;
  /// The span log: non-null only when tracing or params_.causal. It runs
  /// in both capture modes (the DAG is the aggregate mode's only
  /// critical-path record), and the trace timeline is a view of it.
  std::unique_ptr<CausalGraph> log_;
  MetricsRegistry metrics_;
  /// Hot-path instruments resolved once at construction — a map lookup per
  /// message would dominate at extreme p. MetricsRegistry guarantees
  /// reference stability for the registry's lifetime (std::map nodes), and
  /// reset() zeroes values without invalidating them.
  Histogram* h_msg_words_ = nullptr;
  Histogram* h_msg_hops_ = nullptr;
  Histogram* h_hop_latency_ = nullptr;
  Counter* c_messages_ = nullptr;
  Counter* c_words_ = nullptr;
  TrafficMatrix traffic_;
};

/// RAII phase bracket: `PhaseScope phase(machine, "shift");` tags everything
/// the machine does until end of scope.
class PhaseScope {
 public:
  PhaseScope(SimMachine& machine, std::string_view name) : machine_(machine) {
    machine_.begin_phase(name);
  }
  ~PhaseScope() { machine_.end_phase(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  SimMachine& machine_;
};

}  // namespace hpmm
