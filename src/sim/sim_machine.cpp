#include "sim/sim_machine.hpp"

#include <algorithm>
#include <cmath>
#include <ranges>

#include "sim/reliable.hpp"
#include "topology/routing.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace hpmm {

SimMachine::SimMachine(std::shared_ptr<const Topology> topology,
                       MachineParams params)
    : topology_(std::move(topology)), params_(std::move(params)) {
  require(topology_ != nullptr, "SimMachine: topology must not be null");
  require(params_.exec.threads >= 1, "SimMachine: exec.threads must be >= 1");
  require(params_.trace_sample >= 0.0 && params_.trace_sample <= 1.0,
          "SimMachine: trace_sample must be in [0, 1]");
  if (params_.exec.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(params_.exec.threads);
  }
  const std::size_t p = topology_->size();
  stats_.resize(p);
  inbox_head_.assign(p, kNilSlot);
  inbox_tail_.assign(p, kNilSlot);
  chain_.resize(p);
  traffic_ = TrafficMatrix(p);
  // Capture sparsity (DESIGN.md §12): aggregate metrics and traffic-matrix
  // gating are resolved once so the per-message hot path only tests bools.
  aggregate_ = params_.metrics_mode == MetricsMode::kAggregate;
  traffic_on_ =
      params_.traffic_capture == TrafficCapture::kOn ||
      (params_.traffic_capture == TrafficCapture::kAuto &&
       p <= MachineParams::kTrafficAutoThreshold);
  trace_all_ = params_.trace_sample >= 1.0;
  trace_threshold_ =
      trace_all_ ? ~std::uint64_t{0}
                 : static_cast<std::uint64_t>(params_.trace_sample *
                                              18446744073709551616.0);
  // Round scratch, allocated once; exchange() touches only participants.
  scratch_.sends.assign(p, 0);
  scratch_.recvs.assign(p, 0);
  scratch_.send_busy.assign(p, 0.0);
  scratch_.send_span.assign(p, 0.0);
  scratch_.arrival_max.assign(p, 0.0);
  scratch_.arrival_msg.assign(p, kNoMessage);
  scratch_.busiest_msg.assign(p, kNoMessage);
  scratch_.in_round.assign(p, 0);
  // Register the standard distributions up front so they appear in metric
  // exports even before the first message, and cache the hot-path
  // instruments so exchange() never does a by-name lookup per message.
  h_msg_words_ =
      &metrics_.histogram("sim.message_words", Histogram::pow2_bounds(24));
  h_msg_hops_ =
      &metrics_.histogram("sim.message_hops", Histogram::pow2_bounds(8));
  h_hop_latency_ =
      &metrics_.histogram("sim.hop_latency", Histogram::pow2_bounds(24));
  c_messages_ = &metrics_.counter("sim.messages");
  c_words_ = &metrics_.counter("sim.words");
  enable_tracing(params_.trace);
  wall_start_ = std::chrono::steady_clock::now();
  // The fault path only exists when a plan can actually fire; an inactive
  // plan keeps the machine on the exact ideal code path (bit-identical
  // times), which tests/algorithms/resilience_test.cpp pins down.
  if (params_.faults && params_.faults->active()) {
    injector_ = std::make_unique<FaultInjector>(params_.faults);
    for (const auto& s : params_.faults->stragglers) {
      require(s.pid < procs(), "FaultPlan: straggler pid out of range");
    }
    for (const auto& f : params_.faults->failstops) {
      require(f.pid < procs(), "FaultPlan: fail-stop pid out of range");
    }
  }
}

bool SimMachine::trace_sampled(ProcId pid) const noexcept {
  // splitmix64 finalizer over the (pid, seed) pair: a stateless, seeded,
  // uniform hash, so the sampled processor set is reproducible and
  // independent of event order and of p.
  std::uint64_t z = static_cast<std::uint64_t>(pid) + 0x9e3779b97f4a7c15ull +
                    params_.trace_sample_seed;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z < trace_threshold_;
}

void SimMachine::enable_tracing(bool on) {
  tracing_ = on;
  if (!tracing_ && !params_.causal) {
    log_.reset();
  } else if (!log_) {
    log_ = std::make_unique<CausalGraph>(
        procs(), trace_all_, 0x9e3779b97f4a7c15ull ^ params_.trace_sample_seed);
  }
}

namespace {

TraceEvent::Kind timeline_kind(CausalGraph::Kind kind) noexcept {
  switch (kind) {
    case CausalGraph::Kind::kCompute: return TraceEvent::Kind::kCompute;
    case CausalGraph::Kind::kSend: return TraceEvent::Kind::kSend;
    case CausalGraph::Kind::kRetry: return TraceEvent::Kind::kRetry;
    case CausalGraph::Kind::kModeled: return TraceEvent::Kind::kModeledComm;
    case CausalGraph::Kind::kTransfer:
    case CausalGraph::Kind::kWait: break;
  }
  return TraceEvent::Kind::kWait;
}

}  // namespace

Trace SimMachine::trace() const {
  // The timeline view of the span log: every span with a visible extent,
  // in the order the intervals were charged. Sized exactly, since the view
  // and the log are alive together.
  std::vector<TraceEvent> events;
  if (tracing_) {
    const auto& spans = log_->spans();
    events.reserve(static_cast<std::size_t>(
        std::count_if(spans.begin(), spans.end(), [](const auto& s) {
          return s.end > s.start;
        })));
    for (const CausalGraph::Span& s : spans) {
      if (s.end <= s.start) continue;
      events.push_back(
          TraceEvent{s.pid, timeline_kind(s.kind), s.start, s.end, s.phase});
    }
  }
  return Trace(procs(), std::move(events), phase_names_);
}

SimMachine::PhaseId SimMachine::begin_phase(std::string_view name) {
  require(!name.empty(), "SimMachine::begin_phase: empty phase name");
  PhaseId id = 0;
  for (std::size_t i = 1; i < phase_names_.size(); ++i) {
    if (phase_names_[i] == name) {
      id = static_cast<PhaseId>(i);
      break;
    }
  }
  if (id == 0) {
    require(phase_names_.size() < 0xffff,
            "SimMachine::begin_phase: too many distinct phases");
    id = static_cast<PhaseId>(phase_names_.size());
    phase_names_.emplace_back(name);
  }
  phase_stack_.push_back(id);
  return id;
}

void SimMachine::end_phase() {
  require(!phase_stack_.empty(), "SimMachine::end_phase: no open phase");
  phase_stack_.pop_back();
}

PhaseStats& SimMachine::phase_cell(ProcId pid) {
  const PhaseId phase = current_phase();
  if (aggregate_) {
    if (phase_totals_.size() <= phase) phase_totals_.resize(phase + 1u);
    return phase_totals_[phase];
  }
  if (phase_stats_.size() <= phase) phase_stats_.resize(phase + 1u);
  auto& row = phase_stats_[phase];
  if (row.size() < procs()) row.resize(procs());
  return row[pid];
}

PathTerms& SimMachine::chain_cell(ProcId pid) {
  auto& row = chain_[pid];
  const PhaseId phase = current_phase();
  if (row.size() <= phase) row.resize(phase + 1u);
  return row[phase];
}

template <class Explain>
PhaseStats& SimMachine::charge(ProcId pid, Kind kind, double start,
                               double end, double duration,
                               const Explain& explain) {
  ProcStats& st = stats_[pid];
  PhaseStats& cell = phase_cell(pid);
  switch (kind) {
    case Kind::kCompute:
      st.compute_time += duration;
      cell.compute_time += duration;
      break;
    case Kind::kSend:
    case Kind::kModeled:
      st.comm_time += duration;
      cell.comm_time += duration;
      break;
    case Kind::kRetry:
    case Kind::kTransfer:
    case Kind::kWait:
      st.idle_time += duration;
      cell.idle_time += duration;
      break;
  }
  st.clock = end;
  if (duration <= 0.0) return cell;
  const bool chained = !aggregate_ && !CausalGraph::is_wait(kind);
  const bool spanned = logged(pid) && (kind != Kind::kWait || tracing_);
  if (chained || spanned) {
    const Explanation x = explain();
    if (chained) chain_cell(pid) += x.terms;
    if (spanned) {
      log_->append(pid, kind, current_phase(), start, end, x.terms,
                   x.fault_overhead, x.from);
    }
  }
  return cell;
}

void SimMachine::compute(ProcId pid, double flops) {
  require(pid < procs(), "SimMachine::compute: pid out of range");
  // Also rejects NaN and infinity; the flop count is booked as uint64.
  require(flops >= 0.0 && flops < 18446744073709551616.0,
          "SimMachine::compute: flops must be in [0, 2^64)");
  double duration = flops;  // t_c = 1 multiply-add unit
  if (injector_) {
    check_alive(pid);
    duration = flops * injector_->slowdown(pid);  // straggler runs slower
  }
  const double start = stats_[pid].clock;
  // Straggler clock-rate inflation is the fault slice of a compute span.
  PhaseStats& cell =
      charge(pid, Kind::kCompute, start, start + duration, duration, [&] {
        return Explanation{{.compute = duration}, duration - flops, {}};
      });
  ++events_;
  stats_[pid].flops += static_cast<std::uint64_t>(flops);
  cell.flops += static_cast<std::uint64_t>(flops);
  check_deadline(pid);
}

SimMachine::~SimMachine() = default;
SimMachine::SimMachine(SimMachine&&) noexcept = default;
SimMachine& SimMachine::operator=(SimMachine&&) noexcept = default;

void SimMachine::compute_multiply_add(ProcId pid, const Matrix& a,
                                      const Matrix& b, Matrix& c) {
  compute_multiply_add(pid, a, b, c, params_.exec.kernel);
}

void SimMachine::compute_multiply_add(ProcId pid, const Matrix& a,
                                      const Matrix& b, Matrix& c,
                                      Kernel kernel) {
  multiply_add(a, b, c, kernel, pool_.get());
  compute(pid, static_cast<double>(matmul_flops(a.rows(), a.cols(), b.cols())));
}

void SimMachine::compute_multiply_add_batch(
    const std::vector<ComputeTask>& tasks) {
  const Kernel kernel = params_.exec.kernel;
  for (const auto& t : tasks) {
    require(t.c != nullptr, "compute_multiply_add_batch: null output matrix");
    require(t.pid < procs(), "compute_multiply_add_batch: pid out of range");
  }
  // Numerics first: tasks touch disjoint outputs, so they run concurrently
  // across the pool. A single task instead threads inside the kernel.
  const auto run_task = [&](const ComputeTask& t, ThreadPool* pool) {
    for (const auto& [a, b] : t.products) multiply_add(*a, *b, *t.c, kernel, pool);
  };
  if (pool_ != nullptr && tasks.size() > 1) {
    pool_->parallel_for(tasks.size(),
                        [&](std::size_t i) { run_task(tasks[i], nullptr); });
  } else {
    for (const auto& t : tasks) run_task(t, pool_.get());
  }
  // Virtual-time accounting: serial and order-preserving — one charge per
  // product, exactly like the equivalent compute_multiply_add sequence
  // (same clocks, same trace events, ProcessorFailure at the same point).
  for (const auto& t : tasks) {
    for (const auto& [a, b] : t.products) {
      compute(t.pid,
              static_cast<double>(matmul_flops(a->rows(), a->cols(), b->cols())));
    }
  }
}

double SimMachine::message_cost(const Message& m,
                                unsigned contention_load) const {
  const unsigned hops = topology_->hops(m.src, m.dst);
  const double base = params_.message_time(static_cast<double>(m.words()), hops);
  if (contention_load <= 1) return base;
  // Under link contention the per-word part serialises with the other
  // messages sharing the bottleneck link; startup/hop latency is unaffected.
  const double tw_part = params_.t_w * static_cast<double>(m.words()) *
                         (params_.routing == Routing::kStoreAndForward
                              ? static_cast<double>(hops)
                              : 1.0);
  return base + tw_part * static_cast<double>(contention_load - 1);
}

double SimMachine::message_startup(const Message& m) const {
  const unsigned hops = topology_->hops(m.src, m.dst);
  if (hops == 0) return 0.0;
  if (params_.routing == Routing::kStoreAndForward) {
    return params_.t_s * static_cast<double>(hops);
  }
  return params_.t_s + params_.t_h * static_cast<double>(hops);
}

void SimMachine::exchange(std::vector<Message> messages) {
  ++exchange_round_;  // identifies this round in fault-fate hashing
  auto& rs = scratch_;
  // Entry-time cleanup of the previous round's footprint: doing it here
  // rather than on exit means an exception thrown mid-round (deadline,
  // processor failure, precondition) cannot poison the next round.
  for (const ProcId pid : rs.participants) {
    rs.sends[pid] = 0;
    rs.recvs[pid] = 0;
    rs.send_busy[pid] = 0.0;
    rs.send_span[pid] = 0.0;
    rs.arrival_max[pid] = 0.0;
    rs.arrival_msg[pid] = kNoMessage;
    rs.busiest_msg[pid] = kNoMessage;
    rs.in_round[pid] = 0;
  }
  rs.participants.clear();

  // Validate endpoints and count sends/receives, discovering the round's
  // participants. Everything below loops over participants or messages —
  // never over all p processors — so a round between a handful of
  // processors costs the same on a 16-processor machine as on a
  // million-processor one (the "lazy clocks" half of DESIGN.md §12).
  for (const auto& m : messages) {
    require(m.src < procs() && m.dst < procs(),
            "SimMachine::exchange: endpoint out of range");
    require(m.src != m.dst, "SimMachine::exchange: self-message");
    if (injector_) {
      check_alive(m.src);
      check_alive(m.dst);
    }
    if (!rs.in_round[m.src]) {
      rs.in_round[m.src] = 1;
      rs.participants.push_back(m.src);
    }
    if (!rs.in_round[m.dst]) {
      rs.in_round[m.dst] = 1;
      rs.participants.push_back(m.dst);
    }
    ++rs.sends[m.src];
    ++rs.recvs[m.dst];
  }
  // Ascending pid order keeps the processor loops below byte-identical to
  // the historical full 0..p-1 scans (which a non-participant passed
  // through without effect).
  std::sort(rs.participants.begin(), rs.participants.end());
  const bool one_port = params_.ports == PortModel::kOnePort;
  const unsigned limit =
      one_port ? 1u : std::max(1u, topology_->ports_per_proc());
  for (const ProcId pid : rs.participants) {
    require(rs.sends[pid] <= limit,
            "SimMachine::exchange: too many sends from one processor for the "
            "port model (split the pattern into multiple rounds)");
    require(rs.recvs[pid] <= limit,
            "SimMachine::exchange: too many receives at one processor for the "
            "port model (split the pattern into multiple rounds)");
  }

  // Optional contention model: each message's per-word time scales with the
  // worst link load along its route within this round.
  rs.load_factor.assign(messages.size(), 1);
  if (params_.contention == Contention::kLinkLoad && !messages.empty()) {
    std::vector<std::pair<ProcId, ProcId>> transfers;
    transfers.reserve(messages.size());
    for (const auto& m : messages) transfers.emplace_back(m.src, m.dst);
    const auto loads = link_loads(*topology_, transfers);
    for (std::size_t i = 0; i < messages.size(); ++i) {
      unsigned worst = 1;
      for (const Link& link :
           route_on(*topology_, messages[i].src, messages[i].dst)) {
        worst = std::max(worst, loads.at(link));
      }
      rs.load_factor[i] = worst;
    }
  }

  // Senders are busy for the full duration of their transfers. Under the
  // all-port model multiple transfers from one processor run concurrently,
  // so the busy time is the max (not the sum) of their costs. With an
  // active fault plan each message additionally walks the reliable-delivery
  // retry schedule (sim/reliable.hpp): timeouts extend the sender's elapsed
  // span beyond its busy time, and the arrival moves to the successful
  // attempt (plus any in-flight delay).
  rs.deliver.assign(messages.size(), 1);
  rs.deliver_dup.assign(messages.size(), 0);
  // Critical-path bookkeeping (pure metadata — never feeds back into the
  // clock arithmetic below): which message sets each receiver's arrival,
  // which sets each sender's busy time, and each message's startup/word/
  // other split. Retry timeouts, in-flight delays and straggler inflation
  // all land in `other`.
  const PhaseId cur = current_phase();
  rs.msg_startup.assign(messages.size(), 0.0);
  rs.msg_word.assign(messages.size(), 0.0);
  rs.msg_other.assign(messages.size(), 0.0);
  rs.msg_ideal.assign(messages.size(), 0.0);
  events_ += messages.size();
  for (std::size_t i = 0; i < messages.size(); ++i) {
    auto& m = messages[i];
    if (log_) {
      // Span context travels with the payload (and with every retransmission
      // of it): the sender's head at send time is the span this message
      // causally depends on. Heads only mutate in the participant loop
      // below, so this snapshot is the pre-round chain — exactly what a
      // waiting receiver adopts.
      m.span.trace = log_->trace_id();
      m.span.parent = log_->head(m.src);
      m.span.hop = log_->hop(m.src) + 1;
    }
    double cost = message_cost(m, rs.load_factor[i]);
    rs.msg_ideal[i] = cost;
    double busy = cost, span = cost, arrival_delay = 0.0;
    if (injector_) {
      cost *= injector_->slowdown(m.src);  // a straggler's sends run slower
      const ReliableOutcome out =
          reliable_delivery(*injector_, m, exchange_round_, cost);
      busy = out.busy;
      span = out.span();
      arrival_delay = out.delay;
      rs.deliver[i] = out.delivered ? 1 : 0;
      auto& fs = fault_stats_;
      fs.transmissions_dropped += out.attempts - 1 + (out.delivered ? 0 : 1);
      fs.retransmissions += out.retransmissions();
      stats_[m.src].retransmissions += out.retransmissions();
      if (out.delay > 0.0) ++fs.deliveries_delayed;
      if (!out.delivered) ++fs.messages_lost;
      if (out.duplicated) {
        // The reliable protocol de-duplicates at the receiver; without it
        // the extra copy really lands in the inbox.
        if (injector_->plan().reliable) {
          ++fs.duplicates_suppressed;
        } else {
          rs.deliver_dup[i] = out.delivered ? 1 : 0;
          if (out.delivered) ++fs.duplicates_delivered;
        }
      }
      if (out.delivered && out.corrupted) {
        corrupt_message_word(
            m, injector_->corrupt_word_index(m, exchange_round_,
                                             out.corrupt_attempt));
        ++fs.elements_corrupted;
      }
    }
    if (rs.deliver[i]) {
      const double arrival = stats_[m.src].clock + span + arrival_delay;
      if (arrival > rs.arrival_max[m.dst]) {
        rs.arrival_max[m.dst] = arrival;
        rs.arrival_msg[m.dst] = i;
      }
    }
    if (busy > rs.send_busy[m.src]) {
      rs.send_busy[m.src] = busy;
      rs.busiest_msg[m.src] = i;
    }
    rs.send_span[m.src] = std::max(rs.send_span[m.src], span);
    stats_[m.src].messages_sent += 1;
    stats_[m.src].words_sent += m.words();
    // Cost split: startup is the t_s/hop slice of the *base* cost, the rest
    // of the transfer time (contention included) is per-word, and everything
    // past the successful transfer (timeouts, delay, slowdown) is "other".
    rs.msg_startup[i] = std::min(message_startup(m), busy);
    rs.msg_word[i] = busy - rs.msg_startup[i];
    rs.msg_other[i] = (span + arrival_delay) - busy;
    auto& pcell = phase_cell(m.src);
    pcell.messages_sent += 1;
    pcell.words_sent += m.words();
    if (!aggregate_) {
      const unsigned hops = topology_->hops(m.src, m.dst);
      h_msg_words_->observe(static_cast<double>(m.words()));
      h_msg_hops_->observe(static_cast<double>(hops));
      if (hops > 0) h_hop_latency_->observe(cost / static_cast<double>(hops));
    }
    c_messages_->add();
    c_words_->add(m.words());
    if (traffic_on_) traffic_.add(m.src, m.dst, m.words());
  }
  // What a waiting receiver's transfer span explains: the startup, word
  // and other slices of the message that set its arrival.
  const auto transfer_terms = [&rs](std::size_t mi) {
    PathTerms t;
    t.startup = rs.msg_startup[mi];
    t.word = rs.msg_word[mi];
    t.other = rs.msg_other[mi];
    return t;
  };
  // Receivers that end up waiting adopt the chain that produced their
  // arrival: the sender's pre-round decomposition plus this message's cost,
  // attributed to the phase open now (snapshot the chains before the
  // mutation loop below touches them). Aggregate capture keeps no chains.
  if (!aggregate_) {
    rs.adopted.resize(std::max(rs.adopted.size(), rs.participants.size()));
    for (std::size_t k = 0; k < rs.participants.size(); ++k) {
      const ProcId pid = rs.participants[k];
      auto& chain = rs.adopted[k];
      chain.clear();
      const std::size_t mi = rs.arrival_msg[pid];
      if (mi == kNoMessage) continue;
      chain = chain_[messages[mi].src];
      if (chain.size() <= cur) chain.resize(cur + 1u);
      chain[cur] += transfer_terms(mi);
    }
  }
  for (std::size_t k = 0; k < rs.participants.size(); ++k) {
    const ProcId pid = rs.participants[k];
    const double t0 = stats_[pid].clock;
    // The sender is busy for its busiest message, whose cost explains the
    // clock advance (a positive busy time implies one). Retransmission busy
    // time and straggler send inflation beyond the fault-free cost are the
    // span's fault slice.
    double next = t0 + rs.send_busy[pid];
    charge(pid, Kind::kSend, t0, next, rs.send_busy[pid], [&] {
      const std::size_t mi = rs.busiest_msg[pid];
      return Explanation{
          {.startup = rs.msg_startup[mi], .word = rs.msg_word[mi]},
          std::max(0.0, rs.send_busy[pid] - rs.msg_ideal[mi]),
          {}};
    });
    if (rs.send_span[pid] > rs.send_busy[pid]) {
      // Timeout gaps between retransmissions: pure fault overhead.
      const double span_until = t0 + rs.send_span[pid];
      const double gap = span_until - next;
      charge(pid, Kind::kRetry, next, span_until, gap, [gap] {
        return Explanation{{.other = gap}, gap, {}};
      });
      next = span_until;
    }
    if (rs.arrival_max[pid] > next) {
      // The wait ends at the arrival (which set arrival_msg): pid's clock
      // is now explained by the producing chain. The transfer span's pred
      // is the sender's pre-round head, carried on the wire. Timeouts,
      // delays and send inflation put the transfer past the fault-free
      // message cost; that excess is the fault slice.
      charge(pid, Kind::kTransfer, next, rs.arrival_max[pid],
             rs.arrival_max[pid] - next, [&] {
               const std::size_t mi = rs.arrival_msg[pid];
               const PathTerms moved = transfer_terms(mi);
               const double transfer =
                   moved.startup + moved.word + moved.other;
               const SpanContext& ctx = messages[mi].span;
               return Explanation{moved,
                                  std::max(0.0, transfer - rs.msg_ideal[mi]),
                                  {ctx.parent, ctx.hop}};
             });
      // Swapping recycles the old chain's buffer.
      if (!aggregate_) chain_[pid].swap(rs.adopted[k]);
    }
    check_deadline(pid);
  }
  // Deliver payloads.
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (!rs.deliver[i]) continue;
    const ProcId dst = messages[i].dst;
    if (rs.deliver_dup[i]) inbox_push(dst, Message(messages[i]));
    inbox_push(dst, std::move(messages[i]));
  }
}

void SimMachine::inbox_push(ProcId dst, Message&& m) {
  std::uint32_t slot;
  if (inbox_free_ != kNilSlot) {
    slot = inbox_free_;
    inbox_free_ = inbox_slots_[slot].next;
    inbox_slots_[slot].msg = std::move(m);
  } else {
    require(inbox_slots_.size() < kNilSlot,
            "SimMachine::inbox_push: inbox arena full");
    slot = static_cast<std::uint32_t>(inbox_slots_.size());
    inbox_slots_.push_back(InboxSlot{std::move(m), kNilSlot});
  }
  inbox_slots_[slot].next = kNilSlot;
  if (inbox_head_[dst] == kNilSlot) {
    inbox_head_[dst] = slot;
  } else {
    inbox_slots_[inbox_tail_[dst]].next = slot;
  }
  inbox_tail_[dst] = slot;
  ++pending_;
  pending_high_water_ =
      std::max(pending_high_water_, static_cast<std::uint64_t>(pending_));
}

Message SimMachine::receive(ProcId pid, int tag) {
  require(pid < procs(), "SimMachine::receive: pid out of range");
  std::uint32_t prev = kNilSlot;
  for (std::uint32_t s = inbox_head_[pid]; s != kNilSlot;
       prev = s, s = inbox_slots_[s].next) {
    if (inbox_slots_[s].msg.tag != tag) continue;
    Message out = std::move(inbox_slots_[s].msg);
    const std::uint32_t next = inbox_slots_[s].next;
    if (prev == kNilSlot) {
      inbox_head_[pid] = next;
    } else {
      inbox_slots_[prev].next = next;
    }
    if (inbox_tail_[pid] == s) inbox_tail_[pid] = prev;
    // Recycle the slot, cleared: the moved-from message still carries its
    // header and the payload's stale shape.
    inbox_slots_[s].msg = Message{};
    inbox_slots_[s].next = inbox_free_;
    inbox_free_ = s;
    --pending_;
    return out;
  }
  throw PreconditionError(
      "SimMachine::receive: no pending message with requested tag");
}

bool SimMachine::has_message(ProcId pid, int tag) const {
  require(pid < procs(), "SimMachine::has_message: pid out of range");
  for (std::uint32_t s = inbox_head_[pid]; s != kNilSlot;
       s = inbox_slots_[s].next) {
    if (inbox_slots_[s].msg.tag == tag) return true;
  }
  return false;
}

std::size_t SimMachine::pending_messages() const noexcept { return pending_; }

void SimMachine::assert_clean_run() const {
  for (ProcId pid = 0; pid < procs(); ++pid) {
    if (inbox_head_[pid] == kNilSlot) continue;
    const Message& m = inbox_slots_[inbox_head_[pid]].msg;
    throw InternalError(
        "SimMachine::assert_clean_run: leftover message with tag " +
        std::to_string(m.tag) + " pending at destination processor " +
        std::to_string(pid) + " (from " + std::to_string(m.src) + ", " +
        std::to_string(pending_messages()) + " pending in total)");
  }
}

void SimMachine::note_abft(bool detected, bool corrected) {
  if (detected) ++fault_stats_.abft_detected;
  if (corrected) ++fault_stats_.abft_corrected;
}

void SimMachine::check_alive(ProcId pid) const {
  const auto fail_at = injector_->fail_time(pid);
  if (fail_at && stats_[pid].clock >= *fail_at) {
    throw ProcessorFailure(pid, *fail_at);
  }
}

template <class Pids>
SimMachine::Adoption SimMachine::adoption_at(const Pids& pids,
                                             double t) const {
  for (const ProcId pid : pids) {
    if (stats_[pid].clock != t) continue;
    Adoption a;
    if (!aggregate_) a.chain = chain_[pid];
    if (log_) a.edge = log_->edge_from(pid);
    return a;
  }
  return {};
}

void SimMachine::wait_until(ProcId pid, double t, const Adoption& a) {
  const double clock = stats_[pid].clock;
  if (t <= clock) return;
  charge(pid, Kind::kWait, clock, t, t - clock,
         [&a] { return Explanation{{}, 0.0, a.edge}; });
  // pid's clock is now explained by the chain it waited for; head adoption
  // is pure metadata, so it applies to unsampled processors too.
  if (!aggregate_) chain_[pid] = a.chain;
  if (log_) log_->set_head(pid, a.edge.pred);
}

double SimMachine::synchronize() {
  const double t = time();
  // Barrier laggards adopt the chain of the processor that set the barrier
  // time — their clock is now explained by its critical path.
  const Adoption a = adoption_at(
      std::views::iota(ProcId{0}, static_cast<ProcId>(procs())), t);
  for (ProcId pid = 0; pid < procs(); ++pid) wait_until(pid, t, a);
  return t;
}

void SimMachine::charge_group_comm(std::span<const ProcId> group,
                                   double time_cost,
                                   std::uint64_t words_per_member) {
  require(std::isfinite(time_cost) && time_cost >= 0.0,
          "SimMachine::charge_group_comm: time must be finite and >= 0");
  double start = 0.0;
  for (ProcId pid : group) {
    require(pid < procs(), "charge_group_comm: pid out of range");
    start = std::max(start, stats_[pid].clock);
  }
  // As at a barrier, members that wait for the group's latest processor
  // adopt its chain; the modeled charge itself then lands on everyone.
  const Adoption a = adoption_at(group, start);
  events_ += group.size();
  const auto explain = [time_cost] {
    return Explanation{{.modeled = time_cost}, 0.0, {}};
  };
  for (ProcId pid : group) {
    wait_until(pid, start, a);
    PhaseStats& cell = charge(pid, Kind::kModeled, start, start + time_cost,
                              time_cost, explain);
    if (words_per_member > 0) {
      stats_[pid].messages_sent += 1;
      stats_[pid].words_sent += words_per_member;
      cell.messages_sent += 1;
      cell.words_sent += words_per_member;
    }
    check_deadline(pid);
  }
}

void SimMachine::note_alloc(ProcId pid, std::uint64_t words) {
  require(pid < procs(), "note_alloc: pid out of range");
  auto& st = stats_[pid];
  st.words_stored += words;
  st.peak_words_stored = std::max(st.peak_words_stored, st.words_stored);
}

void SimMachine::note_free(ProcId pid, std::uint64_t words) {
  require(pid < procs(), "note_free: pid out of range");
  auto& st = stats_[pid];
  require(st.words_stored >= words, "note_free: freeing more than stored");
  st.words_stored -= words;
}

double SimMachine::clock(ProcId pid) const {
  require(pid < procs(), "SimMachine::clock: pid out of range");
  return stats_[pid].clock;
}

const ProcStats& SimMachine::stats(ProcId pid) const {
  require(pid < procs(), "SimMachine::stats: pid out of range");
  return stats_[pid];
}

double SimMachine::time() const noexcept {
  double t = 0.0;
  for (const auto& st : stats_) t = std::max(t, st.clock);
  return t;
}

std::uint64_t SimMachine::approx_footprint_bytes() const noexcept {
  const auto vec_bytes = [](const auto& v) noexcept -> std::uint64_t {
    return static_cast<std::uint64_t>(v.capacity()) * sizeof(v[0]);
  };
  std::uint64_t total = sizeof(*this);
  total += vec_bytes(stats_);
  total += vec_bytes(inbox_head_) + vec_bytes(inbox_tail_);
  total += vec_bytes(inbox_slots_);
  for (const auto& slot : inbox_slots_) {
    total += static_cast<std::uint64_t>(slot.msg.words()) * sizeof(double);
  }
  total += vec_bytes(phase_totals_);
  for (const auto& row : phase_stats_) total += vec_bytes(row);
  total += vec_bytes(phase_stats_);
  total += vec_bytes(chain_);
  for (const auto& row : chain_) total += vec_bytes(row);
  total += vec_bytes(scratch_.sends) + vec_bytes(scratch_.recvs) +
           vec_bytes(scratch_.send_busy) + vec_bytes(scratch_.send_span) +
           vec_bytes(scratch_.arrival_max) + vec_bytes(scratch_.arrival_msg) +
           vec_bytes(scratch_.busiest_msg) + vec_bytes(scratch_.in_round) +
           vec_bytes(scratch_.participants) + vec_bytes(scratch_.load_factor) +
           vec_bytes(scratch_.deliver) + vec_bytes(scratch_.deliver_dup) +
           vec_bytes(scratch_.msg_startup) + vec_bytes(scratch_.msg_word) +
           vec_bytes(scratch_.msg_other) + vec_bytes(scratch_.msg_ideal);
  for (const auto& row : scratch_.adopted) total += vec_bytes(row);
  total += vec_bytes(scratch_.adopted);
  total += traffic_.bytes();
  if (log_) total += log_->approx_bytes();
  return total;
}

RunReport SimMachine::report(std::string algorithm, std::size_t n,
                             double w_useful, bool keep_proc_stats) const {
  RunReport r;
  r.algorithm = std::move(algorithm);
  r.n = n;
  r.p = procs();
  r.params = params_;
  r.t_parallel = time();
  r.w_useful = w_useful;
  for (const auto& st : stats_) {
    r.max_compute_time = std::max(r.max_compute_time, st.compute_time);
    r.max_comm_time = std::max(r.max_comm_time, st.comm_time);
    r.max_idle_time = std::max(r.max_idle_time, st.idle_time);
    r.total_flops += st.flops;
    r.total_messages += st.messages_sent;
    r.total_words += st.words_sent;
    r.max_peak_words = std::max(r.max_peak_words, st.peak_words_stored);
  }
  r.faults = fault_stats_;
  if (keep_proc_stats) r.procs = stats_;
  // Phase table + critical-path decomposition. The first processor whose
  // clock attains T_p carries a complete dependency chain for the run (its
  // per-phase terms sum to exactly T_p). Aggregate capture keeps neither
  // chains nor per-processor cells: per-phase totals fill the flops/
  // messages/words columns, the maxima and path terms read as zero.
  ProcId crit = 0;
  for (ProcId pid = 0; pid < procs(); ++pid) {
    if (stats_[pid].clock == r.t_parallel) {
      crit = pid;
      break;
    }
  }
  const auto& crit_chain = chain_[crit];
  for (std::size_t ph = 0; ph < phase_names_.size(); ++ph) {
    PhaseBreakdown b;
    b.name = phase_names_[ph];
    if (aggregate_) {
      if (ph < phase_totals_.size()) {
        b.flops = phase_totals_[ph].flops;
        b.messages = phase_totals_[ph].messages_sent;
        b.words = phase_totals_[ph].words_sent;
      }
    } else if (ph < phase_stats_.size()) {
      for (const auto& cell : phase_stats_[ph]) {
        b.max_compute_time = std::max(b.max_compute_time, cell.compute_time);
        b.max_comm_time = std::max(b.max_comm_time, cell.comm_time);
        b.max_idle_time = std::max(b.max_idle_time, cell.idle_time);
        b.flops += cell.flops;
        b.messages += cell.messages_sent;
        b.words += cell.words_sent;
      }
    }
    if (ph < crit_chain.size()) b.path = crit_chain[ph];
    r.critical_path += b.path;
    // Drop the unattributed row when nothing happened outside a phase.
    if (ph == 0 && b.path.total() == 0.0 && b.max_compute_time == 0.0 &&
        b.max_comm_time == 0.0 && b.max_idle_time == 0.0 && b.flops == 0 &&
        b.messages == 0) {
      // Aggregate capture has no maxima; consult the totals so unattributed
      // idle/comm time still keeps the row.
      if (!aggregate_ || phase_totals_.empty() ||
          (phase_totals_[0].compute_time == 0.0 &&
           phase_totals_[0].comm_time == 0.0 &&
           phase_totals_[0].idle_time == 0.0)) {
        continue;
      }
    }
    r.phases.push_back(std::move(b));
  }
  // Engine self-telemetry: how the simulator itself behaved. The wall-clock
  // rates are nondeterministic by nature; everything else is a pure function
  // of the simulated run. None of it is serialized by write_json.
  {
    EngineTelemetry& e = r.engine;
    e.inbox_slots = inbox_slots_.size();
    for (std::uint32_t s = inbox_free_; s != kNilSlot;
         s = inbox_slots_[s].next) {
      ++e.inbox_free;
    }
    e.inbox_pending = pending_;
    e.inbox_high_water = pending_high_water_;
    e.arena_bytes = approx_footprint_bytes();
    e.events = events_;
    e.events_per_vtime =
        r.t_parallel > 0.0 ? static_cast<double>(events_) / r.t_parallel : 0.0;
    e.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_start_)
                         .count();
    e.events_per_wall_sec =
        e.wall_seconds > 0.0 ? static_cast<double>(events_) / e.wall_seconds
                             : 0.0;
    if (pool_) {
      const auto& wp = pool_->wall_profile();
      e.pool_threads = pool_->size();
      e.pool_batches = wp.batches;
      e.pool_items = wp.items;
      e.pool_busy_seconds = wp.busy_seconds;
    }
    if (log_) {
      e.causal_spans = log_->spans().size();
      e.causal_bytes = log_->approx_bytes();
    }
    // Exported snapshot: the run's registry plus the telemetry as engine.*
    // gauges, so --metrics-out and the Prometheus exposition carry them.
    r.metrics = metrics_;
    const auto gset = [&r](const char* name, double v) {
      r.metrics.gauge(name).set(v);
    };
    gset("engine.inbox.slots", static_cast<double>(e.inbox_slots));
    gset("engine.inbox.free", static_cast<double>(e.inbox_free));
    gset("engine.inbox.pending", static_cast<double>(e.inbox_pending));
    gset("engine.inbox.high_water", static_cast<double>(e.inbox_high_water));
    gset("engine.arena.bytes", static_cast<double>(e.arena_bytes));
    gset("engine.events", static_cast<double>(e.events));
    gset("engine.events.virtual_rate", e.events_per_vtime);
    gset("engine.events.wall_rate", e.events_per_wall_sec);
    if (pool_) {
      gset("engine.pool.threads", static_cast<double>(e.pool_threads));
      gset("engine.pool.batches", static_cast<double>(e.pool_batches));
      gset("engine.pool.items", static_cast<double>(e.pool_items));
      gset("engine.pool.busy_seconds", e.pool_busy_seconds);
    }
    if (log_) {
      gset("engine.causal.spans", static_cast<double>(e.causal_spans));
      gset("engine.causal.bytes", static_cast<double>(e.causal_bytes));
    }
  }
  // Causal DAG summary: the measured critical path, walked from the
  // happens-before DAG itself (independent of the chain_ bookkeeping), and
  // the fault-bearing spans on it. Only a complete DAG (trace_sample >= 1)
  // yields a well-defined path.
  if (const CausalGraph* dag = causal()) {
    r.causal.enabled = true;
    r.causal.complete = dag->complete();
    if (dag->complete()) {
      const auto cp = dag->critical_path(crit);
      r.causal.path_spans = cp.spans.size();
      r.causal.measured = cp.terms;
      r.causal.fault_overhead = cp.fault_overhead;
      for (const std::uint32_t idx : cp.spans) {
        const auto& s = dag->spans()[idx];
        if (s.fault_overhead <= 0.0) continue;
        CausalSpanNote note;
        note.kind = std::string(CausalGraph::kind_name(s.kind));
        note.pid = s.pid;
        note.phase = s.phase < phase_names_.size() ? phase_names_[s.phase]
                                                   : std::string();
        // A transfer span covers the receiver's wait; the note names the
        // message's own flight, which ends at the arrival.
        note.start = s.kind == Kind::kTransfer
                         ? s.end - (s.terms.startup + s.terms.word +
                                    s.terms.other)
                         : s.start;
        note.end = s.end;
        note.overhead = s.fault_overhead;
        r.causal.fault_spans.push_back(std::move(note));
      }
    }
  }
  return r;
}

void SimMachine::reset() {
  for (auto& st : stats_) st = ProcStats{};
  inbox_slots_.clear();
  inbox_free_ = kNilSlot;
  std::fill(inbox_head_.begin(), inbox_head_.end(), kNilSlot);
  std::fill(inbox_tail_.begin(), inbox_tail_.end(), kNilSlot);
  pending_ = 0;
  // Round scratch: clear whatever the last round touched (cheap, and makes
  // reset() equivalent to a freshly constructed machine).
  for (const ProcId pid : scratch_.participants) {
    scratch_.sends[pid] = 0;
    scratch_.recvs[pid] = 0;
    scratch_.send_busy[pid] = 0.0;
    scratch_.send_span[pid] = 0.0;
    scratch_.arrival_max[pid] = 0.0;
    scratch_.arrival_msg[pid] = kNoMessage;
    scratch_.busiest_msg[pid] = kNoMessage;
    scratch_.in_round[pid] = 0;
  }
  scratch_.participants.clear();
  fault_stats_ = FaultStats{};
  exchange_round_ = 0;
  phase_names_.assign(1, std::string());
  phase_stack_.clear();
  phase_stats_.clear();
  phase_totals_.clear();
  for (auto& row : chain_) row.clear();
  if (log_) log_->reset();
  pending_high_water_ = 0;
  events_ = 0;
  wall_start_ = std::chrono::steady_clock::now();
  metrics_.reset();
  traffic_ = TrafficMatrix(procs());
}

}  // namespace hpmm
