#include "algorithms/cannon_25d.hpp"

#include <cmath>

#include "matrix/block.hpp"
#include "matrix/checksum.hpp"
#include "sim/collectives.hpp"
#include "sim/sim_machine.hpp"
#include "topology/torus3d.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

constexpr int kTagReplA = 1;
constexpr int kTagReplB = 2;
constexpr int kTagAlignA = 3;
constexpr int kTagAlignB = 4;
constexpr int kTagShiftA = 5;
constexpr int kTagShiftB = 6;
constexpr int kTagReduceC = 7;

}  // namespace

void Cannon25DAlgorithm::check_applicable(std::size_t n, std::size_t p) const {
  require(p >= 1, "cannon25d: need at least one processor");
  require(c_ >= 1 && is_pow2(c_),
          "cannon25d: --c must be a power of two (binomial replication tree)");
  require(p % c_ == 0 && is_perfect_square(p / c_),
          "cannon25d: p must equal c * q^2 for the q x q x c grid (see --c)");
  require(c_ * c_ * c_ <= p,
          "cannon25d: --c must satisfy c^3 <= p (c <= p^(1/3))");
  const std::size_t q = exact_sqrt(p / c_);
  require(q % c_ == 0,
          "cannon25d: --c must divide sqrt(p/c) so each layer runs an "
          "integral number of multiply-shift steps");
  require(p <= c_ * n * n,
          "cannon25d: at most c n^2 processors usable (q <= n per layer)");
  require(n % q == 0, "cannon25d: sqrt(p/c) must divide n");
}

MatmulResult Cannon25DAlgorithm::run(const Matrix& a, const Matrix& b,
                                     std::size_t p,
                                     const MachineParams& params) const {
  const std::size_t n = validated_order(a, b);
  check_applicable(n, p);
  const std::size_t c = c_;
  const std::size_t q = exact_sqrt(p / c);  // per-layer mesh side sqrt(p/c)
  const std::size_t s = q / c;              // multiply-shift steps per layer

  const Torus3D grid3(q, q, c);
  auto topo = std::make_shared<Torus3D>(grid3);
  SimMachine machine(topo, params);

  // ABFT: blocks crossing the network carry row/column checksums, verified
  // (optionally corrected) on receipt; tree collectives additionally verify
  // at every hop so corruptions cannot compound (same scheme as Cannon/GK).
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
  const OnReceive hop_check =
      abft == AbftMode::kOff
          ? OnReceive{}
          : OnReceive{[abft, &machine](Matrix& blk) {
              const ChecksumVerdict v =
                  verify_checksums(blk, abft == AbftMode::kCorrect);
              if (!v.consistent) machine.note_abft(true, v.corrected);
            }};

  // Initial layout: layer 0 holds A and B in Cannon's q x q block
  // distribution; replication fills the other layers.
  const BlockGrid grid(n, n, q, q);
  const std::vector<Matrix> a0 = scatter_blocks(a, grid);
  const std::vector<Matrix> b0 = scatter_blocks(b, grid);
  const std::size_t bw = grid.block_words();

  std::vector<Matrix> a_blk(p), b_blk(p);
  for (std::size_t i = 0; i < q; ++i) {
    for (std::size_t j = 0; j < q; ++j) {
      a_blk[grid3.rank(i, j, 0)] = a0[i * q + j];
      b_blk[grid3.rank(i, j, 0)] = b0[i * q + j];
    }
  }
  // Every processor ends up holding one A, one B and one C block of
  // (n/q)^2 = c n^2/p words each: the Theta(c n^2/p) replication cost.
  for (ProcId pid = 0; pid < p; ++pid) machine.note_alloc(pid, 3 * bw);

  // --- Phase 1: replicate A and B along the fibers (binomial one-to-all
  // broadcast from layer 0, log2 c rounds of t_s + t_w m each).
  if (c > 1) {
    machine.begin_phase("replicate-a");
    for (std::size_t i = 0; i < q; ++i) {
      for (std::size_t j = 0; j < q; ++j) {
        const std::vector<ProcId> fiber = grid3.fiber(i, j);
        std::vector<Matrix> copies =
            broadcast_binomial(machine, fiber, 0, kTagReplA,
                               guard(std::move(a_blk[fiber[0]])), hop_check);
        for (std::size_t l = 0; l < c; ++l) {
          a_blk[fiber[l]] = unguard(std::move(copies[l]));
        }
      }
    }
    machine.synchronize();
    machine.end_phase();
    machine.begin_phase("replicate-b");
    for (std::size_t i = 0; i < q; ++i) {
      for (std::size_t j = 0; j < q; ++j) {
        const std::vector<ProcId> fiber = grid3.fiber(i, j);
        std::vector<Matrix> copies =
            broadcast_binomial(machine, fiber, 0, kTagReplB,
                               guard(std::move(b_blk[fiber[0]])), hop_check);
        for (std::size_t l = 0; l < c; ++l) {
          b_blk[fiber[l]] = unguard(std::move(copies[l]));
        }
      }
    }
    machine.synchronize();
    machine.end_phase();
  }

  // --- Phase 2: staggered Cannon alignment. Layer l starts at global step
  // l*s, so its A block (i, j) moves (i + l*s) mod q steps west and its B
  // block (j + l*s) mod q steps north; after alignment processor (i, j, l)
  // holds A(i, i+j+l*s) and B(i+j+l*s, j). Blocks with zero shift stay put
  // (one row/column per layer), exactly as in plain Cannon.
  if (q > 1) {
    PhaseScope scope(machine, "align");
    std::vector<Message> align_a;
    for (std::size_t l = 0; l < c; ++l) {
      for (std::size_t i = 0; i < q; ++i) {
        const std::size_t shift = (i + l * s) % q;
        if (shift == 0) continue;
        for (std::size_t j = 0; j < q; ++j) {
          const ProcId src = grid3.rank(i, j, l);
          align_a.emplace_back(src, grid3.west(src, shift), kTagAlignA,
                               guard(std::move(a_blk[src])));
        }
      }
    }
    machine.exchange(std::move(align_a));
    for (std::size_t l = 0; l < c; ++l) {
      for (std::size_t i = 0; i < q; ++i) {
        if ((i + l * s) % q == 0) continue;
        for (std::size_t j = 0; j < q; ++j) {
          const ProcId dst = grid3.west(grid3.rank(i, j, l), (i + l * s) % q);
          a_blk[dst] =
              unguard(std::move(machine.receive(dst, kTagAlignA).payload));
        }
      }
    }
    std::vector<Message> align_b;
    for (std::size_t l = 0; l < c; ++l) {
      for (std::size_t j = 0; j < q; ++j) {
        const std::size_t shift = (j + l * s) % q;
        if (shift == 0) continue;
        for (std::size_t i = 0; i < q; ++i) {
          const ProcId src = grid3.rank(i, j, l);
          align_b.emplace_back(src, grid3.north(src, shift), kTagAlignB,
                               guard(std::move(b_blk[src])));
        }
      }
    }
    machine.exchange(std::move(align_b));
    for (std::size_t l = 0; l < c; ++l) {
      for (std::size_t j = 0; j < q; ++j) {
        if ((j + l * s) % q == 0) continue;
        for (std::size_t i = 0; i < q; ++i) {
          const ProcId dst = grid3.north(grid3.rank(i, j, l), (j + l * s) % q);
          b_blk[dst] =
              unguard(std::move(machine.receive(dst, kTagAlignB).payload));
        }
      }
    }
  }

  // --- Phase 3: s = q/c multiply-shift steps per layer (A rolls west, B
  // rolls north, the final step needs no shift). Across the c layers the
  // staggered starts cover all q of Cannon's steps exactly once.
  std::vector<Matrix> c_blk(p);
  for (ProcId pid = 0; pid < p; ++pid) {
    c_blk[pid] = Matrix(grid.block_rows(), grid.block_cols());
  }
  for (std::size_t step = 0; step < s; ++step) {
    std::vector<SimMachine::ComputeTask> phase;
    phase.reserve(p);
    for (ProcId pid = 0; pid < p; ++pid) {
      phase.push_back({pid, &c_blk[pid], {{&a_blk[pid], &b_blk[pid]}}});
    }
    {
      PhaseScope scope(machine, "multiply");
      machine.compute_multiply_add_batch(phase);
    }
    if (step + 1 == s) break;
    PhaseScope scope(machine, "shift");
    std::vector<Message> shift_a, shift_b;
    shift_a.reserve(p);
    shift_b.reserve(p);
    for (ProcId pid = 0; pid < p; ++pid) {
      shift_a.emplace_back(pid, grid3.west(pid), kTagShiftA,
                           guard(std::move(a_blk[pid])));
      shift_b.emplace_back(pid, grid3.north(pid), kTagShiftB,
                           guard(std::move(b_blk[pid])));
    }
    machine.exchange(std::move(shift_a));
    machine.exchange(std::move(shift_b));
    for (ProcId pid = 0; pid < p; ++pid) {
      a_blk[pid] =
          unguard(std::move(machine.receive(pid, kTagShiftA).payload));
      b_blk[pid] =
          unguard(std::move(machine.receive(pid, kTagShiftB).payload));
    }
  }

  // --- Phase 4: sum the c partial C contributions along each fiber onto
  // layer 0 (binomial reduction, log2 c rounds; checksum linearity lets the
  // guarded partials flow through the tree and be verified at the root).
  std::vector<Matrix> c_layer0(q * q);
  if (c > 1) {
    PhaseScope scope(machine, "reduce");
    machine.synchronize();
    for (std::size_t i = 0; i < q; ++i) {
      for (std::size_t j = 0; j < q; ++j) {
        const std::vector<ProcId> fiber = grid3.fiber(i, j);
        std::vector<Matrix> contribs;
        contribs.reserve(c);
        for (std::size_t l = 0; l < c; ++l) {
          contribs.push_back(guard(std::move(c_blk[fiber[l]])));
        }
        c_layer0[i * q + j] = unguard(reduce_binomial(
            machine, fiber, 0, kTagReduceC, std::move(contribs), 0.0,
            hop_check));
      }
    }
  } else {
    for (std::size_t i = 0; i < q; ++i) {
      for (std::size_t j = 0; j < q; ++j) {
        c_layer0[i * q + j] = std::move(c_blk[grid3.rank(i, j, 0)]);
      }
    }
  }
  machine.synchronize();
  machine.assert_clean_run();

  MatmulResult result;
  result.c = gather_blocks(c_layer0, grid);
  result.report =
      machine.report(name(), n, std::pow(static_cast<double>(n), 3.0));
  if (machine.tracing()) result.trace = machine.trace();
  return result;
}

}  // namespace hpmm
