#include "algorithms/gk.hpp"

#include <cmath>

#include "matrix/checksum.hpp"
#include "sim/collectives.hpp"
#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

constexpr int kTagMoveA = 1;
constexpr int kTagMoveB = 2;
constexpr int kTagBcastA = 3;
constexpr int kTagBcastB = 4;
constexpr int kTagReduce = 5;

}  // namespace

std::string GkAlgorithm::name() const {
  std::string base;
  switch (broadcast_) {
    case Broadcast::kBinomial: base = "gk"; break;
    case Broadcast::kJohnssonHo: base = "gk-jh"; break;
    case Broadcast::kAllPort: base = "gk-allport"; break;
  }
  if (interconnect_ == Interconnect::kFullyConnected) base += "-fc";
  return base;
}

void GkAlgorithm::check_applicable(std::size_t n, std::size_t p) const {
  require(p >= 1, "gk: need at least one processor");
  require(is_pow8(p), "gk: p must be 2^(3q)");
  require(p <= n * n * n, "gk: at most n^3 processors usable");
  const std::size_t s = exact_cbrt(p);
  require(n % s == 0, "gk: p^(1/3) must divide n");
}

MatmulResult GkAlgorithm::run(const Matrix& a, const Matrix& b, std::size_t p,
                              const MachineParams& params) const {
  const std::size_t n = validated_order(a, b);
  check_applicable(n, p);
  const std::size_t s = exact_cbrt(p);  // grid side p^{1/3}
  const std::size_t bn = n / s;         // block order n / p^{1/3}
  const double m_words = static_cast<double>(bn) * static_cast<double>(bn);

  std::shared_ptr<const Topology> topo;
  if (interconnect_ == Interconnect::kFullyConnected) {
    topo = std::make_shared<FullyConnected>(p);
  } else {
    topo = std::make_shared<Hypercube>(Hypercube::with_procs(p));
  }
  MachineParams effective = params;
  effective.ports = broadcast_ == Broadcast::kAllPort ? PortModel::kAllPort
                                                      : PortModel::kOnePort;
  SimMachine machine(topo, effective);

  // ABFT: blocks crossing the network carry row/column checksums, verified
  // (optionally corrected) on receipt. Checksum linearity lets augmented
  // blocks flow through the stage-3 reduction and be verified once at the
  // root. Only the real-message (binomial / fully-connected) paths are
  // guarded; the modeled variants move no actual data.
  const AbftMode abft = params.faults ? params.faults->abft : AbftMode::kOff;
  const auto guard = [abft](Matrix blk) {
    return abft == AbftMode::kOff ? std::move(blk) : with_checksums(blk);
  };
  const auto unguard = [abft, &machine](Matrix blk) {
    if (abft != AbftMode::kOff) {
      const ChecksumVerdict v =
          verify_checksums(blk, abft == AbftMode::kCorrect);
      if (!v.consistent) machine.note_abft(true, v.corrected);
      blk = strip_checksums(blk);
    }
    return blk;
  };
  // Per-hop repair for the tree collectives: single-element ABFT can only
  // fix one corruption per block, so blocks relayed through several tree
  // hops must be verified at every hop — otherwise two corruptions compound
  // (or a corrupted partial is summed into a neighbour's) before the final
  // unguard sees them.
  const OnReceive hop_check =
      abft == AbftMode::kOff
          ? OnReceive{}
          : OnReceive{[abft, &machine](Matrix& blk) {
              const ChecksumVerdict v =
                  verify_checksums(blk, abft == AbftMode::kCorrect);
              if (!v.consistent) machine.note_abft(true, v.corrected);
            }};

  // Rank layout (i, j, k) -> i s^2 + j s + k: every axis line is a subcube.
  const auto rank = [s](std::size_t i, std::size_t j, std::size_t k) {
    return static_cast<ProcId>((i * s + j) * s + k);
  };

  // Initial layout (plane i = 0): (0, j, k) holds A block (j, k) and B
  // block (j, k), each bn x bn.
  std::vector<Matrix> a_blk(p), b_blk(p);
  for (std::size_t j = 0; j < s; ++j) {
    for (std::size_t k = 0; k < s; ++k) {
      const ProcId pid = rank(0, j, k);
      a_blk[pid] = a.slice(j * bn, k * bn, bn, bn);
      b_blk[pid] = b.slice(j * bn, k * bn, bn, bn);
      machine.note_alloc(pid, a_blk[pid].size() + b_blk[pid].size());
    }
  }

  // Per-phase cost of the two modeled variants. The Johnsson-Ho variant
  // prices each of the five communication phases as one pipelined broadcast
  // (Section 5.4.1); the all-port variant spreads Eq. 17's total over the
  // five phases.
  const double log_p = p > 1 ? std::log2(static_cast<double>(p)) : 0.0;
  double modeled_phase_time = 0.0;
  if (broadcast_ == Broadcast::kJohnssonHo) {
    modeled_phase_time = johnsson_ho_broadcast_time(params, m_words, s);
  } else if (broadcast_ == Broadcast::kAllPort && p > 1) {
    // Eq. 17: t_s log p + 9 t_w n^2/(p^{2/3} log p) + 6 n p^{-1/3} sqrt(t_s t_w),
    // spread evenly over the five communication phases.
    const double total = params.t_s * log_p + 9.0 * params.t_w * m_words / log_p +
                         6.0 * static_cast<double>(bn) *
                             std::sqrt(params.t_s * params.t_w);
    modeled_phase_time = total / 5.0;
  }
  const bool modeled = broadcast_ != Broadcast::kBinomial && p > 1;

  std::vector<ProcId> all_procs(p);
  for (ProcId pid = 0; pid < p; ++pid) all_procs[pid] = pid;

  // --- Stage 1a/1b: move A block (j, t) from (0, j, t) to (t, j, t) and B
  // block (t, k) from (0, t, k) to (t, t, k). On the hypercube this is
  // dimension-ordered hop-by-hop routing along the i axis (log s rounds, as
  // the paper charges); on the fully connected machine a single round.
  const auto route_plane0_to_diag = [&](std::vector<Matrix>& blk, int tag,
                                        bool target_is_k) {
    // target coordinate t: for A the k index, for B the j index.
    if (s == 1) return;
    if (modeled) {
      for (std::size_t other = 0; other < s; ++other) {
        for (std::size_t t = 1; t < s; ++t) {
          const ProcId src = target_is_k ? rank(0, other, t) : rank(0, t, other);
          const ProcId dst = target_is_k ? rank(t, other, t) : rank(t, t, other);
          blk[dst] = std::move(blk[src]);
        }
      }
      // Book the bn x bn block each processor handles so the modeled phase
      // contributes its data volume to the exact word accounting.
      machine.charge_group_comm(all_procs, modeled_phase_time,
                                static_cast<std::uint64_t>(bn) * bn);
      return;
    }
    if (interconnect_ == Interconnect::kFullyConnected) {
      std::vector<Message> msgs;
      for (std::size_t other = 0; other < s; ++other) {
        for (std::size_t t = 1; t < s; ++t) {
          const ProcId src = target_is_k ? rank(0, other, t) : rank(0, t, other);
          const ProcId dst = target_is_k ? rank(t, other, t) : rank(t, t, other);
          msgs.emplace_back(src, dst, tag, guard(std::move(blk[src])));
        }
      }
      machine.exchange(std::move(msgs));
      for (std::size_t other = 0; other < s; ++other) {
        for (std::size_t t = 1; t < s; ++t) {
          const ProcId dst = target_is_k ? rank(t, other, t) : rank(t, t, other);
          blk[dst] = unguard(std::move(machine.receive(dst, tag).payload));
        }
      }
      return;
    }
    for (std::size_t dbit = 1; dbit < s; dbit <<= 1) {
      std::vector<Message> msgs;
      for (std::size_t other = 0; other < s; ++other) {
        for (std::size_t t = 0; t < s; ++t) {
          if ((t & dbit) == 0) continue;
          const std::size_t cur = t & (dbit - 1);
          const ProcId src = target_is_k ? rank(cur, other, t) : rank(cur, t, other);
          const ProcId dst = target_is_k ? rank(cur | dbit, other, t)
                                         : rank(cur | dbit, t, other);
          msgs.emplace_back(src, dst, tag, guard(std::move(blk[src])));
        }
      }
      if (msgs.empty()) continue;
      machine.exchange(std::move(msgs));
      for (std::size_t other = 0; other < s; ++other) {
        for (std::size_t t = 0; t < s; ++t) {
          if ((t & dbit) == 0) continue;
          const std::size_t cur = (t & (dbit - 1)) | dbit;
          const ProcId dst = target_is_k ? rank(cur, other, t) : rank(cur, t, other);
          blk[dst] = unguard(std::move(machine.receive(dst, tag).payload));
        }
      }
    }
  };

  // Phases are separated by barriers so the simulated time decomposes
  // exactly as the paper's stage-by-stage accounting (Eq. 7 / Eq. 18): five
  // communication phases of (t_s + t_w m) log p^{1/3} each on the hypercube.
  {
    PhaseScope scope(machine, "move-a");
    route_plane0_to_diag(a_blk, kTagMoveA, /*target_is_k=*/true);
    machine.synchronize();
  }
  {
    PhaseScope scope(machine, "move-b");
    route_plane0_to_diag(b_blk, kTagMoveB, /*target_is_k=*/false);
    machine.synchronize();
  }

  // --- Stage 1c: broadcast A along k-lines; 1d: broadcast B along j-lines.
  if (s > 1) {
    {
      PhaseScope scope(machine, "broadcast-a");
      for (std::size_t i = 0; i < s; ++i) {
        for (std::size_t j = 0; j < s; ++j) {
          std::vector<ProcId> group;
          group.reserve(s);
          for (std::size_t k = 0; k < s; ++k) group.push_back(rank(i, j, k));
          std::vector<Matrix> copies;
          if (modeled) {
            copies = broadcast_modeled(machine, group, i,
                                       std::move(a_blk[group[i]]),
                                       modeled_phase_time);
          } else {
            copies = broadcast_binomial(machine, group, i, kTagBcastA,
                                        guard(std::move(a_blk[group[i]])),
                                        hop_check);
            for (auto& cp : copies) cp = unguard(std::move(cp));
          }
          for (std::size_t k = 0; k < s; ++k) a_blk[group[k]] = std::move(copies[k]);
        }
      }
      machine.synchronize();
    }
    PhaseScope scope(machine, "broadcast-b");
    for (std::size_t i = 0; i < s; ++i) {
      for (std::size_t k = 0; k < s; ++k) {
        std::vector<ProcId> group;
        group.reserve(s);
        for (std::size_t j = 0; j < s; ++j) group.push_back(rank(i, j, k));
        std::vector<Matrix> copies;
        if (modeled) {
          copies = broadcast_modeled(machine, group, i, std::move(b_blk[group[i]]),
                                     modeled_phase_time);
        } else {
          copies = broadcast_binomial(machine, group, i, kTagBcastB,
                                      guard(std::move(b_blk[group[i]])),
                                      hop_check);
          for (auto& cp : copies) cp = unguard(std::move(cp));
        }
        for (std::size_t j = 0; j < s; ++j) b_blk[group[j]] = std::move(copies[j]);
      }
    }
    machine.synchronize();
  }

  // --- Stage 2: every processor multiplies its bn x bn block pair
  // (n^3/p multiply-add units).
  std::vector<Matrix> c_blk(p);
  std::vector<SimMachine::ComputeTask> phase;
  phase.reserve(p);
  for (ProcId pid = 0; pid < p; ++pid) {
    c_blk[pid] = Matrix(bn, bn);
    phase.push_back({pid, &c_blk[pid], {{&a_blk[pid], &b_blk[pid]}}});
  }
  {
    PhaseScope scope(machine, "multiply");
    machine.compute_multiply_add_batch(phase);
  }
  for (ProcId pid = 0; pid < p; ++pid) {
    machine.note_alloc(pid, c_blk[pid].size());
  }

  // --- Stage 3: sum the p^{1/3} partial products along each i-line into the
  // i = 0 plane.
  Matrix c(n, n);
  PhaseScope reduce_scope(machine, "reduce");
  for (std::size_t j = 0; j < s; ++j) {
    for (std::size_t k = 0; k < s; ++k) {
      std::vector<ProcId> group;
      std::vector<Matrix> contribs;
      group.reserve(s);
      contribs.reserve(s);
      for (std::size_t i = 0; i < s; ++i) {
        group.push_back(rank(i, j, k));
        contribs.push_back(std::move(c_blk[rank(i, j, k)]));
      }
      Matrix sum(bn, bn);
      if (modeled && s > 1) {
        // Data combined directly; the phase is charged once per line with
        // the modeled collective's closed form.
        for (auto& part : contribs) sum += part;
        machine.charge_group_comm(group, modeled_phase_time,
                                  static_cast<std::uint64_t>(bn) * bn);
      } else {
        for (auto& part : contribs) part = guard(std::move(part));
        sum = unguard(reduce_binomial(machine, group, 0, kTagReduce,
                                      std::move(contribs), 0.0, hop_check));
      }
      c.paste(sum, j * bn, k * bn);
    }
  }
  machine.synchronize();
  machine.assert_clean_run();

  MatmulResult result;
  result.c = std::move(c);
  result.report = machine.report(name(), n, std::pow(static_cast<double>(n), 3.0));
  if (machine.tracing()) result.trace = machine.trace();
  return result;
}

}  // namespace hpmm
