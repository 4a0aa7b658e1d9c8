#include "algorithms/cannon.hpp"

#include <cmath>

#include "matrix/block.hpp"
#include "matrix/checksum.hpp"
#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"
#include "topology/torus.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

constexpr int kTagAlignA = 1;
constexpr int kTagAlignB = 2;
constexpr int kTagShiftA = 3;
constexpr int kTagShiftB = 4;

}  // namespace

void CannonAlgorithm::check_applicable(std::size_t n, std::size_t p) const {
  require(p >= 1, "cannon: need at least one processor");
  require(is_perfect_square(p), "cannon: p must be a perfect square");
  require(p <= n * n, "cannon: at most n^2 processors usable (Table 1)");
  require(n % exact_sqrt(p) == 0, "cannon: sqrt(p) must divide n");
  if (mapping_ == Mapping::kHypercubeGray) {
    require(is_pow2(exact_sqrt(p)),
            "cannon-gray: sqrt(p) must be a power of two for the Gray-code "
            "hypercube embedding");
  }
}

MatmulResult CannonAlgorithm::run(const Matrix& a, const Matrix& b,
                                  std::size_t p,
                                  const MachineParams& params) const {
  const std::size_t n = validated_order(a, b);
  check_applicable(n, p);
  const std::size_t sp = exact_sqrt(p);

  // Logical mesh geometry; physically either the mesh itself or its
  // Gray-code image in a hypercube (dilation 1: logical neighbours remain
  // physical neighbours, so Eq. 3 holds identically on both).
  const Torus2D torus(sp, sp);
  std::shared_ptr<const Topology> topo;
  if (mapping_ == Mapping::kHypercubeGray) {
    topo = std::make_shared<Hypercube>(Hypercube::with_procs(p));
  } else {
    topo = std::make_shared<Torus2D>(sp, sp);
  }
  SimMachine machine(topo, params);
  // Physical processor id of logical mesh node `r`.
  const auto phys = [&](ProcId r) {
    if (mapping_ == Mapping::kMesh) return r;
    const auto [row, col] = torus.coords(r);
    return torus.gray_rank(row, col);
  };

  // ABFT: guard blocks crossing the network with row/column checksums and
  // verify (optionally correct) them on receipt (matrix/checksum.hpp). The
  // extra checksum row/column travels with every message, so the protection
  // overhead shows up honestly in T_o.
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

  const BlockGrid grid(n, n, sp, sp);
  std::vector<Matrix> a_blk = scatter_blocks(a, grid);
  std::vector<Matrix> b_blk = scatter_blocks(b, grid);
  const std::size_t bw = grid.block_words();
  for (ProcId pid = 0; pid < p; ++pid) machine.note_alloc(pid, 3 * bw);

  // Alignment: block A(i,j) moves i steps west, block B(i,j) moves j steps
  // north. One-to-one communication along non-conflicting paths; with
  // cut-through routing this costs a single message time per matrix
  // (the paper ignores it relative to the sqrt(p) multiply-shift steps).
  if (sp > 1) {
    PhaseScope scope(machine, "align");
    std::vector<Message> align_a;
    for (std::size_t i = 0; i < sp; ++i) {
      if (i == 0) continue;  // row 0 is already aligned
      for (std::size_t j = 0; j < sp; ++j) {
        const ProcId src = torus.rank(i, j);
        const ProcId dst = torus.west(src, i);
        align_a.emplace_back(phys(src), phys(dst), kTagAlignA, guard(std::move(a_blk[i * sp + j])));
      }
    }
    machine.exchange(std::move(align_a));
    // Collect the aligned A blocks back into row-major slots.
    for (std::size_t i = 1; i < sp; ++i) {
      for (std::size_t j = 0; j < sp; ++j) {
        const ProcId pid = torus.rank(i, j);
        a_blk[i * sp + j] = unguard(std::move(machine.receive(phys(pid), kTagAlignA).payload));
      }
    }
    std::vector<Message> align_b;
    for (std::size_t i = 0; i < sp; ++i) {
      for (std::size_t j = 1; j < sp; ++j) {
        const ProcId src = torus.rank(i, j);
        const ProcId dst = torus.north(src, j);
        align_b.emplace_back(phys(src), phys(dst), kTagAlignB, guard(std::move(b_blk[i * sp + j])));
      }
    }
    machine.exchange(std::move(align_b));
    for (std::size_t i = 0; i < sp; ++i) {
      for (std::size_t j = 1; j < sp; ++j) {
        const ProcId pid = torus.rank(i, j);
        b_blk[i * sp + j] = unguard(std::move(machine.receive(phys(pid), kTagAlignB).payload));
      }
    }
  }

  // sqrt(p) multiply-shift steps: multiply resident blocks, roll A west and
  // B north. The final step needs no shift.
  std::vector<Matrix> c_blk(p);
  for (std::size_t idx = 0; idx < p; ++idx) {
    c_blk[idx] = Matrix(grid.block_rows(), grid.block_cols());
  }
  for (std::size_t step = 0; step < sp; ++step) {
    std::vector<SimMachine::ComputeTask> phase;
    phase.reserve(p);
    for (std::size_t i = 0; i < sp; ++i) {
      for (std::size_t j = 0; j < sp; ++j) {
        const ProcId pid = torus.rank(i, j);
        phase.push_back({phys(pid),
                         &c_blk[i * sp + j],
                         {{&a_blk[i * sp + j], &b_blk[i * sp + j]}}});
      }
    }
    {
      PhaseScope scope(machine, "multiply");
      machine.compute_multiply_add_batch(phase);
    }
    if (step + 1 == sp) break;
    PhaseScope scope(machine, "shift");
    std::vector<Message> shift_a, shift_b;
    shift_a.reserve(p);
    shift_b.reserve(p);
    for (std::size_t i = 0; i < sp; ++i) {
      for (std::size_t j = 0; j < sp; ++j) {
        const ProcId src = torus.rank(i, j);
        shift_a.emplace_back(phys(src), phys(torus.west(src)), kTagShiftA,
                             guard(std::move(a_blk[i * sp + j])));
        shift_b.emplace_back(phys(src), phys(torus.north(src)), kTagShiftB,
                             guard(std::move(b_blk[i * sp + j])));
      }
    }
    machine.exchange(std::move(shift_a));
    machine.exchange(std::move(shift_b));
    for (std::size_t i = 0; i < sp; ++i) {
      for (std::size_t j = 0; j < sp; ++j) {
        const ProcId pid = torus.rank(i, j);
        a_blk[i * sp + j] = unguard(std::move(machine.receive(phys(pid), kTagShiftA).payload));
        b_blk[i * sp + j] = unguard(std::move(machine.receive(phys(pid), kTagShiftB).payload));
      }
    }
  }
  machine.synchronize();
  machine.assert_clean_run();

  MatmulResult result;
  result.c = gather_blocks(c_blk, grid);
  result.report = machine.report(name(), n, std::pow(static_cast<double>(n), 3.0));
  if (machine.tracing()) result.trace = machine.trace();
  return result;
}

}  // namespace hpmm
