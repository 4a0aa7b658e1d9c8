#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "matrix/matrix.hpp"
#include "topology/topology.hpp"

namespace hpmm {

/// Causal span context stamped onto every message by exchange() when
/// MachineParams::causal is set (see sim/causal.hpp): the run's trace id,
/// the sender's head span at send time (the span whose completion this
/// message causally depends on), and the causal hop depth — how many
/// message transfers the dependency chain behind it has already crossed.
/// Retransmissions of a message under the reliable-delivery protocol reuse
/// the same Message object, so every retry carries the same context. All
/// zero / kNoSpan when causal tracing is off or the sender is unsampled.
struct SpanContext {
  std::uint64_t trace = 0;
  std::uint32_t parent = 0xffffffffu;  ///< CausalGraph::kNoSpan when absent
  std::uint32_t hop = 0;
};

/// A point-to-point message: one matrix block moving from src to dst in a
/// single transfer, held inline. Its cost is t_s + t_w * words() (times hop
/// factors per the routing model).
struct Message {
  ProcId src = 0;
  ProcId dst = 0;
  int tag = 0;
  SpanContext span;
  Matrix payload;

  Message() = default;
  Message(ProcId s, ProcId d, int t, Matrix block)
      : src(s), dst(d), tag(t), payload(std::move(block)) {}

  /// Words carried (the m of t_s + t_w * m).
  std::size_t words() const noexcept { return payload.size(); }
};

}  // namespace hpmm
