#pragma once

#include <functional>
#include <span>
#include <vector>

#include "sim/sim_machine.hpp"

namespace hpmm {

/// Collective operations over a group of simulated processors.
///
/// The *emergent* collectives below are built hop-by-hop from point-to-point
/// exchange rounds, so their cost arises from the simulator's timing rule and
/// is validated against the closed forms of [Johnsson & Ho 1989] in tests:
///
///   binomial one-to-all broadcast:   (t_s + t_w m) log g
///   ring all-to-all broadcast:       (t_s + t_w m)(g - 1)
///   recursive-doubling all-to-all:    t_s log g + t_w m (g - 1)
///   binomial-tree reduction:         (t_s + t_w m) log g  (+ add time)
///
/// The *modeled* collectives replicate data directly and charge a literature
/// closed form via SimMachine::charge_group_comm (see DESIGN.md §2).
///
/// Groups are ordered lists of processor ids; "position" below means index in
/// that list. When the group is an ascending subcube of a hypercube the
/// binomial/recursive-doubling patterns communicate only across physical
/// hypercube links.

/// Per-hop receive hook: invoked on every block as it comes off the wire,
/// before it is forwarded or combined. ABFT-guarded algorithms use this to
/// verify (and repair) checksums at each tree hop, so one corrupted
/// transmission never compounds with another further down the tree.
using OnReceive = std::function<void(Matrix&)>;

/// One-to-all broadcast of `payload` from group[root_pos] to every group
/// member via a binomial tree. Returns one copy per member, indexed by
/// position.
std::vector<Matrix> broadcast_binomial(SimMachine& machine,
                                       std::span<const ProcId> group,
                                       std::size_t root_pos, int tag,
                                       Matrix payload,
                                       const OnReceive& on_receive = {});

/// All-to-one reduction: element-wise sum of `contributions` (one per
/// position) delivered to group[root_pos] via a binomial tree. Each combine
/// charges `add_cost_per_word` * words of compute to the combining processor
/// (the paper's equations fold these additions into the n^3/p term, so the
/// matching default is 0 — see DESIGN.md).
Matrix reduce_binomial(SimMachine& machine, std::span<const ProcId> group,
                       std::size_t root_pos, int tag,
                       std::vector<Matrix> contributions,
                       double add_cost_per_word = 0.0,
                       const OnReceive& on_receive = {});

/// All-to-all broadcast over a ring: every member contributes one block and
/// receives every block. Result[pos][i] is the contribution of position i.
/// Cost (g-1)(t_s + t_w m) — the mesh-row pattern of the Simple algorithm.
std::vector<std::vector<Matrix>> all_to_all_ring(SimMachine& machine,
                                                 std::span<const ProcId> group,
                                                 int tag,
                                                 std::vector<Matrix> contributions);

/// All-to-all broadcast by recursive doubling (hypercube allgather); group
/// size must be a power of two. Cost t_s log g + t_w m (g-1). Each round a
/// member sends one message: the blocks it has gathered, packed back to
/// back into one payload; the receiver restores each block's shape.
/// Contributions may differ in shape.
std::vector<std::vector<Matrix>> all_to_all_recursive_doubling(
    SimMachine& machine, std::span<const ProcId> group, int tag,
    std::vector<Matrix> contributions);

/// Recursive-halving reduce-scatter: element-wise sum of `contributions`
/// (one per position), with the sum left *scattered*: position v ends up
/// holding horizontal slice v (rows [v*h/g, (v+1)*h/g)) of the g-way sum.
/// Group size must be a power of two and divide the contribution row count.
/// Cost sum_{s=1..log g} (t_s + t_w m / 2^s) = t_s log g + t_w m (1 - 1/g) —
/// the scheme that gives Berntsen's algorithm its t_w n^2/p^{2/3} summation
/// term (Section 4.4 / Eq. 5).
std::vector<Matrix> reduce_scatter_halving(SimMachine& machine,
                                           std::span<const ProcId> group,
                                           int tag,
                                           std::vector<Matrix> contributions,
                                           double add_cost_per_word = 0.0);

/// Closed-form time of the Johnsson-Ho pipelined one-to-all broadcast of an
/// m-word message over a g-processor (sub)cube (Section 5.4.1):
///   t_s log g + t_w m + 2 t_w log g * max(1, sqrt(t_s m / (t_w log g))).
double johnsson_ho_broadcast_time(const MachineParams& params, double words,
                                  std::size_t group_size);

/// Modeled broadcast: replicates `payload` to all members and charges `time`
/// to the whole group.
std::vector<Matrix> broadcast_modeled(SimMachine& machine,
                                      std::span<const ProcId> group,
                                      std::size_t root_pos, Matrix payload,
                                      double time);

/// Modeled all-to-all broadcast: every member receives all contributions;
/// `time` charged to the whole group.
std::vector<std::vector<Matrix>> all_to_all_modeled(
    SimMachine& machine, std::span<const ProcId> group,
    std::vector<Matrix> contributions, double time);

}  // namespace hpmm
