#include "sim/collectives.hpp"

#include <algorithm>
#include <cmath>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

/// Rounds of a binomial tree over g virtual ranks: ceil(log2 g).
unsigned tree_rounds(std::size_t g) {
  unsigned r = 0;
  while ((std::size_t{1} << r) < g) ++r;
  return r;
}

/// Map virtual rank -> group position. XOR keeps physical hypercube
/// adjacency when the group is an ascending subcube; fall back to rotation
/// for non-power-of-two groups.
std::size_t vrank_to_pos(std::size_t vrank, std::size_t root_pos, std::size_t g) {
  if (is_pow2(g)) return vrank ^ root_pos;
  return (vrank + root_pos) % g;
}

}  // namespace

std::vector<Matrix> broadcast_binomial(SimMachine& machine,
                                       std::span<const ProcId> group,
                                       std::size_t root_pos, int tag,
                                       Matrix payload,
                                       const OnReceive& on_receive) {
  const std::size_t g = group.size();
  require(g > 0, "broadcast_binomial: empty group");
  require(root_pos < g, "broadcast_binomial: root out of range");
  machine.metrics().counter("collective.broadcast_binomial").add();
  std::vector<Matrix> result(g);
  std::vector<bool> have(g, false);
  result[root_pos] = std::move(payload);
  have[root_pos] = true;

  // Ascending subtree order: at step s every vrank v < 2^s already holds the
  // payload and ships it to v + 2^s, doubling the informed set each round.
  const unsigned rounds = tree_rounds(g);
  for (unsigned s = 0; s < rounds; ++s) {
    std::vector<Message> msgs;
    const std::size_t half = std::size_t{1} << s;
    msgs.reserve(half);
    for (std::size_t v = 0; v < half; ++v) {
      const std::size_t peer = v + half;
      if (peer >= g) continue;
      const std::size_t from = vrank_to_pos(v, root_pos, g);
      const std::size_t to = vrank_to_pos(peer, root_pos, g);
      ensure(have[from] && !have[to], "broadcast_binomial: tree bookkeeping");
      msgs.emplace_back(group[from], group[to], tag, result[from]);
      have[to] = true;
    }
    if (!msgs.empty()) machine.exchange(std::move(msgs));
    for (std::size_t v = 0; v < half; ++v) {
      const std::size_t peer = v + half;
      if (peer >= g) continue;
      const std::size_t to = vrank_to_pos(peer, root_pos, g);
      result[to] = std::move(machine.receive(group[to], tag).payload);
      if (on_receive) on_receive(result[to]);
    }
  }
  return result;
}

Matrix reduce_binomial(SimMachine& machine, std::span<const ProcId> group,
                       std::size_t root_pos, int tag,
                       std::vector<Matrix> contributions,
                       double add_cost_per_word,
                       const OnReceive& on_receive) {
  const std::size_t g = group.size();
  require(g > 0, "reduce_binomial: empty group");
  require(root_pos < g, "reduce_binomial: root out of range");
  require(contributions.size() == g,
          "reduce_binomial: one contribution per member required");
  machine.metrics().counter("collective.reduce_binomial").add();
  const unsigned rounds = tree_rounds(g);
  // Mirror of the broadcast: at step s, vrank v with bit s set (and lower
  // bits clear) sends its partial sum to vrank v - 2^s.
  for (unsigned s = 0; s < rounds; ++s) {
    const std::size_t bit = std::size_t{1} << s;
    std::vector<Message> msgs;
    msgs.reserve(g / (2 * bit) + 1);
    std::vector<std::size_t> receivers;
    receivers.reserve(g / (2 * bit) + 1);
    for (std::size_t v = bit; v < g; v += 2 * bit) {
      const std::size_t from = vrank_to_pos(v, root_pos, g);
      const std::size_t to = vrank_to_pos(v - bit, root_pos, g);
      msgs.emplace_back(group[from], group[to], tag,
                        std::move(contributions[from]));
      receivers.push_back(to);
    }
    if (msgs.empty()) continue;
    machine.exchange(std::move(msgs));
    for (std::size_t to : receivers) {
      Message m = machine.receive(group[to], tag);
      Matrix& partial = m.payload;
      if (on_receive) on_receive(partial);
      contributions[to] += partial;
      if (add_cost_per_word > 0.0) {
        machine.compute(group[to],
                        add_cost_per_word * static_cast<double>(partial.size()));
      }
    }
  }
  return std::move(contributions[root_pos]);
}

std::vector<std::vector<Matrix>> all_to_all_ring(
    SimMachine& machine, std::span<const ProcId> group, int tag,
    std::vector<Matrix> contributions) {
  const std::size_t g = group.size();
  require(g > 0, "all_to_all_ring: empty group");
  require(contributions.size() == g,
          "all_to_all_ring: one contribution per member required");
  machine.metrics().counter("collective.all_to_all_ring").add();
  std::vector<std::vector<Matrix>> result(g, std::vector<Matrix>(g));
  // in_flight[pos]: the block that position `pos` forwards next round.
  std::vector<Matrix> in_flight(g);
  for (std::size_t pos = 0; pos < g; ++pos) {
    result[pos][pos] = contributions[pos];
    in_flight[pos] = std::move(contributions[pos]);
  }
  for (std::size_t step = 1; step < g; ++step) {
    std::vector<Message> msgs;
    msgs.reserve(g);
    for (std::size_t pos = 0; pos < g; ++pos) {
      const std::size_t to = (pos + 1) % g;
      msgs.emplace_back(group[pos], group[to], tag, std::move(in_flight[pos]));
    }
    machine.exchange(std::move(msgs));
    for (std::size_t pos = 0; pos < g; ++pos) {
      Message m = machine.receive(group[pos], tag);
      // After `step` forwards, position pos holds the block contributed by
      // (pos - step + g) mod g.
      const std::size_t origin = (pos + g - step) % g;
      result[pos][origin] = m.payload;
      in_flight[pos] = std::move(m.payload);
    }
  }
  return result;
}

std::vector<std::vector<Matrix>> all_to_all_recursive_doubling(
    SimMachine& machine, std::span<const ProcId> group, int tag,
    std::vector<Matrix> contributions) {
  const std::size_t g = group.size();
  require(is_pow2(g), "all_to_all_recursive_doubling: group size must be 2^k");
  require(contributions.size() == g,
          "all_to_all_recursive_doubling: one contribution per member");
  machine.metrics().counter("collective.all_to_all_recursive_doubling").add();
  // accumulated[pos]: pairs (origin, block) gathered so far.
  std::vector<std::vector<std::pair<std::size_t, Matrix>>> acc(g);
  for (std::size_t pos = 0; pos < g; ++pos) {
    acc[pos].emplace_back(pos, std::move(contributions[pos]));
  }
  const unsigned rounds = exact_log2(g);
  for (unsigned s = 0; s < rounds; ++s) {
    const std::size_t bit = std::size_t{1} << s;
    std::vector<Message> msgs;
    msgs.reserve(g);
    // Each member ships everything it has gathered as one payload: its
    // blocks back to back in acc order, so the message's words, cost and
    // any corrupted word are those of the blocks laid end to end.
    for (std::size_t pos = 0; pos < g; ++pos) {
      const std::size_t peer = pos ^ bit;
      std::size_t words = 0;
      for (const auto& [origin, block] : acc[pos]) words += block.size();
      Matrix packed(1, words);
      double* out = packed.data().data();
      for (const auto& [origin, block] : acc[pos]) {
        out = std::copy(block.data().begin(), block.data().end(), out);
      }
      msgs.emplace_back(group[pos], group[peer], tag, std::move(packed));
    }
    machine.exchange(std::move(msgs));
    for (std::size_t pos = 0; pos < g; ++pos) {
      const Message m = machine.receive(group[pos], tag);
      const std::size_t peer = pos ^ bit;
      // The peer packed its first `bit` entries (all it held before this
      // round); they name each block's origin and shape. Unreliable
      // delivery with duplicates can hand over a stale message from an
      // earlier round, which holds fewer blocks: unpacking stops where the
      // payload runs out.
      std::span<const double> in = m.payload.data();
      for (std::size_t i = 0; i < bit && i < acc[peer].size(); ++i) {
        const auto& [origin, shape] = acc[peer][i];
        if (in.size() < shape.size()) break;
        Matrix block(shape.rows(), shape.cols());
        std::copy_n(in.begin(), block.size(), block.data().begin());
        in = in.subspan(block.size());
        acc[pos].emplace_back(origin, std::move(block));
      }
    }
  }
  std::vector<std::vector<Matrix>> result(g, std::vector<Matrix>(g));
  for (std::size_t pos = 0; pos < g; ++pos) {
    for (auto& [origin, block] : acc[pos]) {
      result[pos][origin] = std::move(block);
    }
  }
  return result;
}

std::vector<Matrix> reduce_scatter_halving(SimMachine& machine,
                                           std::span<const ProcId> group,
                                           int tag,
                                           std::vector<Matrix> contributions,
                                           double add_cost_per_word) {
  const std::size_t g = group.size();
  require(is_pow2(g), "reduce_scatter_halving: group size must be 2^k");
  require(contributions.size() == g,
          "reduce_scatter_halving: one contribution per member required");
  machine.metrics().counter("collective.reduce_scatter_halving").add();
  const std::size_t rows = contributions.front().rows();
  const std::size_t cols = contributions.front().cols();
  for (const auto& c : contributions) {
    require(c.rows() == rows && c.cols() == cols,
            "reduce_scatter_halving: contributions must share a shape");
  }
  require(rows % g == 0,
          "reduce_scatter_halving: group size must divide the row count");

  // work[pos] is the slice of rows this member is still responsible for;
  // row_lo[pos] tracks which global rows that slice covers.
  std::vector<Matrix> work = std::move(contributions);
  std::vector<std::size_t> row_lo(g, 0);
  for (std::size_t bit = g >> 1; bit >= 1; bit >>= 1) {
    std::vector<Message> msgs;
    msgs.reserve(g);
    std::vector<Matrix> kept(g);
    for (std::size_t pos = 0; pos < g; ++pos) {
      const std::size_t peer = pos ^ bit;
      const std::size_t half_rows = work[pos].rows() / 2;
      // Member with the bit clear keeps the lower half; its peer keeps the
      // upper half. Each ships the half it is giving up.
      const bool keep_lower = (pos & bit) == 0;
      Matrix keep = work[pos].slice(keep_lower ? 0 : half_rows, 0, half_rows, cols);
      Matrix give = work[pos].slice(keep_lower ? half_rows : 0, 0, half_rows, cols);
      kept[pos] = std::move(keep);
      if (!keep_lower) row_lo[pos] += half_rows;
      msgs.emplace_back(group[pos], group[peer], tag, std::move(give));
    }
    machine.exchange(std::move(msgs));
    for (std::size_t pos = 0; pos < g; ++pos) {
      Message m = machine.receive(group[pos], tag);
      kept[pos] += m.payload;
      if (add_cost_per_word > 0.0) {
        machine.compute(group[pos], add_cost_per_word *
                                        static_cast<double>(kept[pos].size()));
      }
      work[pos] = std::move(kept[pos]);
    }
    if (bit == 1) break;  // avoid unsigned wrap in the loop condition
  }
  // row_lo[pos] must equal pos * rows / g by construction.
  for (std::size_t pos = 0; pos < g; ++pos) {
    ensure(row_lo[pos] == pos * (rows / g),
           "reduce_scatter_halving: slice bookkeeping");
  }
  return work;
}

double johnsson_ho_broadcast_time(const MachineParams& params, double words,
                                  std::size_t group_size) {
  if (group_size <= 1) return 0.0;
  const double logg = std::log2(static_cast<double>(group_size));
  if (words <= 0.0) return params.t_s * logg;
  if (params.t_w <= 0.0) return params.t_s * logg;
  // Optimal packet count; at least one packet (the paper's degenerate-case
  // guard in Section 5.4.1).
  const double packets =
      std::max(1.0, std::sqrt(params.t_s * words / (params.t_w * logg)));
  return params.t_s * logg + params.t_w * words + 2.0 * params.t_w * logg * packets;
}

std::vector<Matrix> broadcast_modeled(SimMachine& machine,
                                      std::span<const ProcId> group,
                                      std::size_t root_pos, Matrix payload,
                                      double time) {
  const std::size_t g = group.size();
  require(root_pos < g, "broadcast_modeled: root out of range");
  machine.metrics().counter("collective.broadcast_modeled").add();
  // Every member handles one copy of the payload; booking it keeps modeled
  // broadcasts visible to the word-count oracle (analysis/bounds).
  machine.charge_group_comm(group, time,
                            g > 1 ? static_cast<std::uint64_t>(payload.size())
                                  : 0);
  std::vector<Matrix> result(g);
  for (std::size_t pos = 0; pos < g; ++pos) {
    if (pos != root_pos) result[pos] = payload;
  }
  result[root_pos] = std::move(payload);
  return result;
}

std::vector<std::vector<Matrix>> all_to_all_modeled(
    SimMachine& machine, std::span<const ProcId> group,
    std::vector<Matrix> contributions, double time) {
  const std::size_t g = group.size();
  require(contributions.size() == g,
          "all_to_all_modeled: one contribution per member required");
  machine.metrics().counter("collective.all_to_all_modeled").add();
  // Each member receives every other member's contribution; with the equal
  // blocks the algorithms pass this is exactly (g-1)/g of the group volume.
  std::uint64_t volume = 0;
  for (const Matrix& m : contributions) {
    volume += static_cast<std::uint64_t>(m.size());
  }
  machine.charge_group_comm(group, time, g > 1 ? volume - volume / g : 0);
  std::vector<std::vector<Matrix>> result(g);
  for (std::size_t pos = 0; pos < g; ++pos) result[pos] = contributions;
  return result;
}

}  // namespace hpmm
