#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string_view>
#include <vector>

#include "sim/report.hpp"
#include "topology/topology.hpp"

namespace hpmm {

/// The run's span log (DESIGN.md §9): the one per-event record of a
/// simulated run, kept when MachineParams::trace or ::causal is set. Every
/// charged interval on a sampled processor — a compute charge, the busy
/// part of a send, retry timeouts, a message transfer a receiver waited
/// on, a modeled-collective charge and, with a trace on, a barrier or
/// group wait — becomes a Span in one flat arena, appended in charge
/// order. The log has two views: the happens-before DAG read here, and
/// the timeline SimMachine::trace() builds from the same spans.
///
/// Each span points at the span it causally depends on:
///
///  * compute/send/retry/modeled spans chain onto the processor's previous
///    head span (program order);
///  * a transfer span covers the receiver's wait and its pred is the
///    *sender's* head at send time (carried on the wire by
///    Message::span); the receiver adopts it as its new head, exactly
///    mirroring the PathTerms chain adoption in SimMachine::exchange();
///  * a wait span is a leaf whose pred is the head of the processor that
///    set the barrier. It never becomes a head: the waiter's head moves
///    with set_head(), so the DAG is the same with or without a trace.
///
/// Walking pred links back from the head of the processor that attains T_p
/// therefore yields the *measured* critical path: the longest weighted
/// chain of spans, whose summed PathTerms must reconcile with the
/// model-term chain in RunReport::critical_path (to 1e-9; the two sum the
/// same doubles in slightly different association). Each span also carries
/// the slice of its duration attributable to faults (retransmission busy
/// time, timeouts, in-flight delays, straggler inflation), so on a faulty
/// run the DAG names exactly which spans stretched T_p.
///
/// Storage is arena-style — 80-byte PODs in fixed chunks of 2^15 spans
/// (2.5 MiB), so an append never moves a recorded span, plus one head index
/// per processor — and recording honours the --trace-sample
/// splitmix64 gate, so the graph stays viable at p ~ 2^20. When sampling
/// excludes any processor the graph is incomplete (complete() == false):
/// span counts and bytes remain meaningful, but chains crossing unsampled
/// processors are truncated and the critical path is not computed.
class CausalGraph {
 public:
  /// Sentinel pred/head: no producing span (chain root).
  static constexpr std::uint32_t kNoSpan = 0xffffffffu;

  enum class Kind : std::uint8_t {
    kCompute,   ///< compute() charge
    kSend,      ///< sender busy time of its round-dominating message
    kRetry,     ///< sender timeout time beyond busy (reliable delivery)
    kTransfer,  ///< a receiver's wait for a message (cross edge)
    kModeled,   ///< charge_group_comm modeled-collective charge
    kWait       ///< barrier or group wait (recorded with a trace only)
  };
  static std::string_view kind_name(Kind k) noexcept;
  /// Transfers and waits: time pid spent waiting on another processor,
  /// whose chain (not pid's own program order) explains it.
  static constexpr bool is_wait(Kind k) noexcept {
    return k == Kind::kTransfer || k == Kind::kWait;
  }

  struct Span {
    std::uint32_t pred = kNoSpan;  ///< producing span (index into spans())
    ProcId pid = 0;                ///< processor the span ran on (dst for transfers)
    std::uint16_t phase = 0;       ///< phase open when the span was recorded
    Kind kind = Kind::kCompute;
    std::uint32_t hop = 0;  ///< message transfers crossed by the chain so far
    double start = 0.0;
    double end = 0.0;
    PathTerms terms;  ///< model-term slice this span contributes to its chain
    double fault_overhead = 0.0;  ///< slice of terms attributable to faults
  };

  /// The log's storage, read through spans(): spans in append order, kept
  /// in fixed chunks of kChunkSpans. A chunk's capacity is reserved whole
  /// when its first span lands, so appending never relocates a stored span,
  /// and pages of a chunk stay untouched until spans reach them. Only
  /// CausalGraph appends; a copy is a read-only snapshot.
  class Spans {
   public:
    static constexpr unsigned kChunkBits = 15;
    static constexpr std::size_t kChunkSpans = std::size_t{1} << kChunkBits;

    std::size_t size() const noexcept { return size_; }
    const Span& operator[](std::size_t i) const noexcept {
      return chunks_[i >> kChunkBits][i & (kChunkSpans - 1)];
    }

    class const_iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Span;
      using difference_type = std::ptrdiff_t;
      using pointer = const Span*;
      using reference = const Span&;

      const_iterator() = default;
      const_iterator(const Spans* spans, std::size_t i)
          : spans_(spans), i_(i) {}
      reference operator*() const noexcept { return (*spans_)[i_]; }
      pointer operator->() const noexcept { return &(*spans_)[i_]; }
      const_iterator& operator++() noexcept {
        ++i_;
        return *this;
      }
      const_iterator operator++(int) noexcept {
        const_iterator before = *this;
        ++i_;
        return before;
      }
      friend bool operator==(const const_iterator& a,
                             const const_iterator& b) noexcept {
        return a.i_ == b.i_;
      }

     private:
      const Spans* spans_ = nullptr;
      std::size_t i_ = 0;
    };
    const_iterator begin() const noexcept { return {this, 0}; }
    const_iterator end() const noexcept { return {this, size_}; }

    /// Bytes the log holds: the chunk table and every span slot written
    /// since the chunks were reserved. A chunk's untouched pages are not
    /// counted.
    std::uint64_t bytes() const noexcept;

   private:
    friend class CausalGraph;
    void push_back(const Span& s);
    /// Forget every span, keeping the chunks for reuse.
    void clear() noexcept;

    std::vector<std::vector<Span>> chunks_;
    std::size_t size_ = 0;
    std::size_t high_water_ = 0;  ///< most spans held before a clear()
  };

  /// The span another processor's span depends on, with the number of
  /// message transfers crossed by the chain behind it.
  struct Edge {
    std::uint32_t pred = kNoSpan;
    std::uint32_t hop = 0;
  };

  /// `complete` declares that every processor is sampled (trace_sample >= 1),
  /// making the critical path well-defined. `trace_id` stamps the run's
  /// SpanContexts.
  CausalGraph(std::size_t procs, bool complete, std::uint64_t trace_id);

  std::uint64_t trace_id() const noexcept { return trace_id_; }
  bool complete() const noexcept { return complete_; }

  /// pid's current head span (kNoSpan before its first recorded span).
  std::uint32_t head(ProcId pid) const noexcept { return heads_[pid]; }
  /// Causal hop depth at pid's head (0 when no head).
  std::uint32_t hop(ProcId pid) const noexcept {
    return heads_[pid] == kNoSpan ? 0u : spans_[heads_[pid]].hop;
  }
  /// pid's head as the edge a span that waited on pid depends on.
  Edge edge_from(ProcId pid) const noexcept { return {heads_[pid], hop(pid)}; }
  /// Barrier/group adoption: pid's clock is now explained by another
  /// processor's chain. Records no span.
  void set_head(ProcId pid, std::uint32_t span) noexcept { heads_[pid] = span; }

  /// Append one span on pid. Compute, send, retry and modeled spans chain
  /// onto pid's head and become it. A transfer depends on `from` (the
  /// sender's head at send time) and becomes pid's head: the receiver
  /// waited for this arrival, so its clock is explained by the producing
  /// chain. A wait depends on `from` and stays a leaf.
  void append(ProcId pid, Kind kind, std::uint16_t phase, double start,
              double end, const PathTerms& terms, double fault_overhead,
              Edge from);

  /// Every span in append order. A span's index and address never change;
  /// reset() reuses the chunks.
  const Spans& spans() const noexcept { return spans_; }

  /// Bytes the span log holds (Spans::bytes()) plus the head table.
  std::uint64_t approx_bytes() const noexcept;

  struct CriticalPath {
    std::vector<std::uint32_t> spans;  ///< root-to-head order
    PathTerms terms;                   ///< summed over the chain
    double fault_overhead = 0.0;       ///< summed fault slices on the chain
  };
  /// Walk pred links back from pid's head; terms are summed root-to-head.
  CriticalPath critical_path(ProcId pid) const;

  /// Deterministic serialization of every span (arena order) plus heads —
  /// one JSON object, byte-identical for byte-identical runs. Tests pin the
  /// cross-thread / cross-capture-mode determinism contract on this.
  void write_json(std::ostream& os) const;

  /// Drop every span and head (SimMachine::reset()).
  void reset();

 private:
  Spans spans_;
  std::vector<std::uint32_t> heads_;
  bool complete_ = true;
  std::uint64_t trace_id_ = 0;
};

}  // namespace hpmm
