#include "algorithms/berntsen.hpp"

#include <cmath>

#include "matrix/block.hpp"
#include "sim/collectives.hpp"
#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

constexpr int kTagAlignA = 1;
constexpr int kTagAlignB = 2;
constexpr int kTagShiftA = 3;
constexpr int kTagShiftB = 4;
constexpr int kTagReduce = 5;

}  // namespace

void BerntsenAlgorithm::check_applicable(std::size_t n, std::size_t p) const {
  require(p >= 1, "berntsen: need at least one processor");
  require(is_pow8(p), "berntsen: p must be 2^(3q)");
  const double nd = static_cast<double>(n);
  const double pd = static_cast<double>(p);
  require(pd * pd <= nd * nd * nd,
          "berntsen: p <= n^(3/2) required (limited concurrency, Section 4.4)");
  const std::size_t q = exact_log2(p) / 3;
  const std::size_t kdim = std::size_t{1} << (2 * q);  // 2^{2q}
  require(n % kdim == 0, "berntsen: p^(2/3) must divide n");
}

MatmulResult BerntsenAlgorithm::run(const Matrix& a, const Matrix& b,
                                    std::size_t p,
                                    const MachineParams& params) const {
  const std::size_t n = validated_order(a, b);
  check_applicable(n, p);
  const unsigned q = exact_log2(p) / 3;
  const std::size_t slabs = std::size_t{1} << q;       // 2^q subcubes
  const std::size_t side = slabs;                      // internal mesh side 2^q
  const std::size_t sub_procs = side * side;           // 2^{2q} per subcube

  auto topo = std::make_shared<Hypercube>(Hypercube(3 * q));
  SimMachine machine(topo, params);

  // Processor (s, i, j): subcube s (top q bits), internal mesh row i
  // (middle q bits), column j (low q bits).
  const auto rank = [&](std::size_t s, std::size_t i, std::size_t j) {
    return static_cast<ProcId>(s * sub_procs + i * side + j);
  };

  // Block shapes inside subcube s: A_s blocks are (n/2^q) x (n/2^{2q}),
  // B_s blocks are (n/2^{2q}) x (n/2^q), C blocks are (n/2^q) x (n/2^q).
  const std::size_t br = n / side;        // n / 2^q
  const std::size_t bk = n / (side * side);  // n / 2^{2q}

  // Distribute: subcube s takes column slab s of A and row slab s of B;
  // internally block (i, j) of the slab goes to mesh position (i, j).
  // a_blk/b_blk/c_blk are indexed by processor id.
  std::vector<Matrix> a_blk(p), b_blk(p), c_blk(p);
  for (std::size_t s = 0; s < slabs; ++s) {
    for (std::size_t i = 0; i < side; ++i) {
      for (std::size_t j = 0; j < side; ++j) {
        const ProcId pid = rank(s, i, j);
        a_blk[pid] = a.slice(i * br, s * br + j * bk, br, bk);
        b_blk[pid] = b.slice(s * br + i * bk, j * br, bk, br);
        c_blk[pid] = Matrix(br, br);
        machine.note_alloc(pid, a_blk[pid].size() + b_blk[pid].size() +
                                    c_blk[pid].size());
      }
    }
  }

  // Cannon alignment within every subcube simultaneously: A block (i, j)
  // moves to column (j - i) mod side, B block (i, j) to row (i - j) mod side.
  if (side > 1) {
    PhaseScope scope(machine, "align");
    std::vector<Message> align_a, align_b;
    for (std::size_t s = 0; s < slabs; ++s) {
      for (std::size_t i = 0; i < side; ++i) {
        for (std::size_t j = 0; j < side; ++j) {
          if (i != 0) {
            align_a.emplace_back(rank(s, i, j), rank(s, i, (j + side - i) % side),
                                 kTagAlignA, std::move(a_blk[rank(s, i, j)]));
          }
          if (j != 0) {
            align_b.emplace_back(rank(s, i, j), rank(s, (i + side - j) % side, j),
                                 kTagAlignB, std::move(b_blk[rank(s, i, j)]));
          }
        }
      }
    }
    machine.exchange(std::move(align_a));
    machine.exchange(std::move(align_b));
    for (std::size_t s = 0; s < slabs; ++s) {
      for (std::size_t i = 0; i < side; ++i) {
        for (std::size_t j = 0; j < side; ++j) {
          const ProcId pid = rank(s, i, j);
          if (i != 0) {
            a_blk[pid] = std::move(machine.receive(pid, kTagAlignA).payload);
          }
          if (j != 0) {
            b_blk[pid] = std::move(machine.receive(pid, kTagAlignB).payload);
          }
        }
      }
    }
  }

  // side multiply-shift Cannon steps in every subcube.
  for (std::size_t step = 0; step < side; ++step) {
    std::vector<SimMachine::ComputeTask> phase;
    phase.reserve(p);
    for (ProcId pid = 0; pid < p; ++pid) {
      phase.push_back({pid, &c_blk[pid], {{&a_blk[pid], &b_blk[pid]}}});
    }
    {
      PhaseScope scope(machine, "multiply");
      machine.compute_multiply_add_batch(phase);
    }
    if (step + 1 == side) break;
    PhaseScope scope(machine, "shift");
    std::vector<Message> shift_a, shift_b;
    for (std::size_t s = 0; s < slabs; ++s) {
      for (std::size_t i = 0; i < side; ++i) {
        for (std::size_t j = 0; j < side; ++j) {
          const ProcId pid = rank(s, i, j);
          shift_a.emplace_back(pid, rank(s, i, (j + side - 1) % side), kTagShiftA,
                               std::move(a_blk[pid]));
          shift_b.emplace_back(pid, rank(s, (i + side - 1) % side, j), kTagShiftB,
                               std::move(b_blk[pid]));
        }
      }
    }
    machine.exchange(std::move(shift_a));
    machine.exchange(std::move(shift_b));
    for (ProcId pid = 0; pid < p; ++pid) {
      a_blk[pid] = std::move(machine.receive(pid, kTagShiftA).payload);
      b_blk[pid] = std::move(machine.receive(pid, kTagShiftB).payload);
    }
  }

  // Sum the 2^q partial products across subcubes with a recursive-halving
  // reduce-scatter: the groups are {rank(s, i, j) : s} for each (i, j), which
  // differ only in the top q address bits (physical subcube links). Processor
  // (s, i, j) ends up with horizontal slice s of C block (i, j).
  Matrix c(n, n);
  machine.begin_phase("reduce-scatter");
  for (std::size_t i = 0; i < side; ++i) {
    for (std::size_t j = 0; j < side; ++j) {
      std::vector<ProcId> group;
      std::vector<Matrix> contribs;
      group.reserve(slabs);
      contribs.reserve(slabs);
      for (std::size_t s = 0; s < slabs; ++s) {
        group.push_back(rank(s, i, j));
        contribs.push_back(std::move(c_blk[rank(s, i, j)]));
      }
      std::vector<Matrix> slices =
          reduce_scatter_halving(machine, group, kTagReduce, std::move(contribs));
      // The scattered result slice replaces (a fraction of) the partial
      // product each member just gave up, so peak storage is unchanged.
      for (std::size_t s = 0; s < slabs; ++s) {
        c.paste(slices[s], i * br + s * (br / slabs), j * br);
      }
    }
  }
  machine.synchronize();
  machine.end_phase();
  machine.assert_clean_run();

  MatmulResult result;
  result.c = std::move(c);
  result.report = machine.report(name(), n, std::pow(static_cast<double>(n), 3.0));
  if (machine.tracing()) result.trace = machine.trace();
  return result;
}

}  // namespace hpmm
