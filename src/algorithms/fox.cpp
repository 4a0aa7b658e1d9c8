#include "algorithms/fox.hpp"

#include <cmath>

#include "matrix/block.hpp"
#include "sim/collectives.hpp"
#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"
#include "topology/torus.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

constexpr int kTagBcastA = 1;
constexpr int kTagShiftB = 2;
constexpr int kTagPacket = 3;

}  // namespace

void FoxAlgorithm::check_applicable(std::size_t n, std::size_t p) const {
  require(p >= 1, "fox: need at least one processor");
  require(is_perfect_square(p), "fox: p must be a perfect square");
  require(p <= n * n, "fox: at most n^2 processors usable");
  const std::size_t sp = exact_sqrt(p);
  require(n % sp == 0, "fox: sqrt(p) must divide n");
  if (variant_ == Variant::kBinomialHypercube) {
    require(is_pow2(sp), "fox: sqrt(p) must be a power of two (hypercube rows)");
  }
}

void FoxAlgorithm::pipelined_row_broadcast(SimMachine& machine,
                                           const Torus2D& torus, std::size_t sp,
                                           const std::vector<Matrix>& a_blk,
                                           std::size_t iteration,
                                           std::vector<Matrix>& received) const {
  // Each root splits its block into up to sqrt(p) row-slices; packet j
  // leaves the root at round j and travels eastwards, one hop per round.
  // Every processor relays at most one packet per round (one-port safe).
  const std::size_t rows = a_blk.front().rows();
  const std::size_t cols = a_blk.front().cols();
  const std::size_t packets = std::min(sp, rows);
  const std::size_t chunk = (rows + packets - 1) / packets;

  // packet_store[pid][j]: packet j once it has arrived at pid.
  std::vector<std::vector<Matrix>> packet_store(
      sp * sp, std::vector<Matrix>(packets));
  for (std::size_t i = 0; i < sp; ++i) {
    const std::size_t root_col = (i + iteration) % sp;
    const Matrix& block = a_blk[i * sp + root_col];
    auto& store = packet_store[torus.rank(i, root_col)];
    for (std::size_t j = 0; j < packets; ++j) {
      const std::size_t r0 = j * chunk;
      const std::size_t h = std::min(chunk, rows - r0);
      store[j] = block.slice(r0, 0, h, cols);
    }
  }

  const std::size_t rounds = packets + sp - 2;  // last packet reaches d=sp-1
  for (std::size_t round = 0; sp > 1 && round < rounds; ++round) {
    std::vector<Message> msgs;
    for (std::size_t i = 0; i < sp; ++i) {
      const std::size_t root_col = (i + iteration) % sp;
      for (std::size_t d = 0; d + 1 < sp; ++d) {
        // Distance-d processor forwards packet (round - d), if it exists.
        if (round < d) continue;
        const std::size_t j = round - d;
        if (j >= packets) continue;
        const ProcId src = torus.rank(i, (root_col + d) % sp);
        const ProcId dst = torus.rank(i, (root_col + d + 1) % sp);
        msgs.emplace_back(src, dst, kTagPacket, packet_store[src][j]);
      }
    }
    if (msgs.empty()) continue;
    machine.exchange(std::move(msgs));
    for (std::size_t i = 0; i < sp; ++i) {
      const std::size_t root_col = (i + iteration) % sp;
      for (std::size_t d = 0; d + 1 < sp; ++d) {
        if (round < d) continue;
        const std::size_t j = round - d;
        if (j >= packets) continue;
        const ProcId dst = torus.rank(i, (root_col + d + 1) % sp);
        packet_store[dst][j] =
            std::move(machine.receive(dst, kTagPacket).payload);
      }
    }
  }

  // Reassemble the broadcast block everywhere.
  for (std::size_t i = 0; i < sp; ++i) {
    for (std::size_t jcol = 0; jcol < sp; ++jcol) {
      const ProcId pid = torus.rank(i, jcol);
      Matrix block(rows, cols);
      std::size_t r0 = 0;
      for (std::size_t j = 0; j < packets; ++j) {
        block.paste(packet_store[pid][j], r0, 0);
        r0 += packet_store[pid][j].rows();
      }
      received[pid] = std::move(block);
    }
  }
}

MatmulResult FoxAlgorithm::run(const Matrix& a, const Matrix& b, std::size_t p,
                               const MachineParams& params) const {
  const std::size_t n = validated_order(a, b);
  check_applicable(n, p);
  const std::size_t sp = exact_sqrt(p);

  const Torus2D torus(sp, sp);
  std::shared_ptr<const Topology> topo;
  if (variant_ == Variant::kBinomialHypercube) {
    topo = std::make_shared<Hypercube>(Hypercube::with_procs(p));
  } else {
    topo = std::make_shared<Torus2D>(sp, sp);
  }
  SimMachine machine(topo, params);
  const auto rank = [sp](std::size_t i, std::size_t j) {
    return static_cast<ProcId>(i * sp + j);
  };
  // North neighbour on the logical wrap-around mesh.
  const auto north_of = [sp, &rank](std::size_t i, std::size_t j) {
    return rank((i + sp - 1) % sp, j);
  };

  const BlockGrid grid(n, n, sp, sp);
  std::vector<Matrix> a_blk = scatter_blocks(a, grid);
  std::vector<Matrix> b_blk = scatter_blocks(b, grid);
  std::vector<Matrix> c_blk(p);
  for (std::size_t idx = 0; idx < p; ++idx) {
    c_blk[idx] = Matrix(grid.block_rows(), grid.block_cols());
  }
  for (ProcId pid = 0; pid < p; ++pid) {
    machine.note_alloc(pid, 4 * grid.block_words());  // A, B, C + broadcast copy
  }

  for (std::size_t t = 0; t < sp; ++t) {
    // Row broadcasts: in row i, the processor at column (i + t) mod sqrt(p)
    // broadcasts its A block to the whole row.
    std::vector<Matrix> received(p);
    machine.begin_phase("broadcast");
    if (variant_ == Variant::kPipelinedRing) {
      pipelined_row_broadcast(machine, torus, sp, a_blk, t, received);
    } else {
      for (std::size_t i = 0; i < sp; ++i) {
        const std::size_t src_col = (i + t) % sp;
        std::vector<ProcId> group;
        group.reserve(sp);
        for (std::size_t j = 0; j < sp; ++j) group.push_back(rank(i, j));
        auto copies = broadcast_binomial(machine, group, src_col, kTagBcastA,
                                         a_blk[i * sp + src_col]);
        for (std::size_t j = 0; j < sp; ++j) {
          received[rank(i, j)] = std::move(copies[j]);
        }
      }
    }
    // Iterations are synchronous (the paper's default formulation): the
    // simulated time decomposes as sqrt(p) x (broadcast + multiply + roll).
    machine.synchronize();
    machine.end_phase();
    // Multiply the broadcast A block with the resident B block.
    std::vector<SimMachine::ComputeTask> phase;
    phase.reserve(p);
    for (std::size_t i = 0; i < sp; ++i) {
      for (std::size_t j = 0; j < sp; ++j) {
        phase.push_back({rank(i, j),
                         &c_blk[i * sp + j],
                         {{&received[rank(i, j)], &b_blk[i * sp + j]}}});
      }
    }
    {
      PhaseScope scope(machine, "multiply");
      machine.compute_multiply_add_batch(phase);
    }
    // Roll B one step north (last iteration needs no roll).
    if (t + 1 == sp || sp == 1) continue;
    PhaseScope scope(machine, "roll");
    std::vector<Message> shift;
    shift.reserve(p);
    for (std::size_t i = 0; i < sp; ++i) {
      for (std::size_t j = 0; j < sp; ++j) {
        shift.emplace_back(rank(i, j), north_of(i, j), kTagShiftB,
                           std::move(b_blk[i * sp + j]));
      }
    }
    machine.exchange(std::move(shift));
    for (std::size_t i = 0; i < sp; ++i) {
      for (std::size_t j = 0; j < sp; ++j) {
        b_blk[i * sp + j] =
            std::move(machine.receive(rank(i, j), kTagShiftB).payload);
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
