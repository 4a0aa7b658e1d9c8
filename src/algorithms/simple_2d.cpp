#include "algorithms/simple_2d.hpp"

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

constexpr int kTagA = 1;
constexpr int kTagB = 2;

}  // namespace

std::string SimpleAlgorithm::name() const {
  switch (variant_) {
    case Variant::kOnePortRing: return "simple-ring";
    case Variant::kOnePortRecursiveDoubling: return "simple";
    case Variant::kAllPort: return "simple-allport";
  }
  return "simple";
}

std::string SimpleAlgorithm::applicability() const {
  switch (variant_) {
    case Variant::kOnePortRing: return "as cannon";
    case Variant::kOnePortRecursiveDoubling: return "as cannon, sqrt(p) = 2^k";
    case Variant::kAllPort: return "as simple, n >= sqrt(p) log(p)/2";
  }
  return "as cannon";
}

void SimpleAlgorithm::check_applicable(std::size_t n, std::size_t p) const {
  require(p >= 1, "simple: need at least one processor");
  require(is_perfect_square(p), "simple: p must be a perfect square");
  const std::size_t sp = exact_sqrt(p);
  require(n % sp == 0, "simple: sqrt(p) must divide n");
  if (variant_ != Variant::kOnePortRing) {
    // Rows/columns of the mesh must be hypercube subcubes.
    require(is_pow2(sp), "simple: sqrt(p) must be a power of two on a hypercube");
  }
  if (variant_ == Variant::kAllPort) {
    // Section 7.1: every channel needs at least one word per transfer, which
    // requires n >= (1/2) sqrt(p) log p.
    const double log_p = p > 1 ? std::log2(static_cast<double>(p)) : 1.0;
    require(static_cast<double>(n) >=
                0.5 * std::sqrt(static_cast<double>(p)) * log_p,
            "simple-allport: n >= (1/2) sqrt(p) log p required to fill all "
            "channels (Section 7.1)");
  }
}

MatmulResult SimpleAlgorithm::run(const Matrix& a, const Matrix& b,
                                  std::size_t p,
                                  const MachineParams& params) const {
  const std::size_t n = validated_order(a, b);
  check_applicable(n, p);
  const std::size_t sp = exact_sqrt(p);

  std::shared_ptr<const Topology> topo;
  if (variant_ == Variant::kOnePortRing) {
    topo = std::make_shared<Torus2D>(sp, sp);
  } else {
    topo = std::make_shared<Hypercube>(Hypercube::with_procs(p));
  }
  MachineParams effective = params;
  effective.ports = variant_ == Variant::kAllPort ? PortModel::kAllPort
                                                  : PortModel::kOnePort;
  SimMachine machine(topo, effective);

  // Row-major mapping (i, j) -> i * sp + j. On the hypercube this makes each
  // mesh row an ascending subcube (low bits) and each column a subcube in
  // the high bits, so the collectives only cross physical links.
  const auto rank = [sp](std::size_t i, std::size_t j) {
    return static_cast<ProcId>(i * sp + j);
  };

  const BlockGrid grid(n, n, sp, sp);
  const std::size_t bw = grid.block_words();
  std::vector<Matrix> a_blocks = scatter_blocks(a, grid);
  std::vector<Matrix> b_blocks = scatter_blocks(b, grid);
  for (ProcId pid = 0; pid < p; ++pid) machine.note_alloc(pid, 2 * bw);

  // All-to-all broadcast of A blocks within each row and B blocks within
  // each column: afterwards processor (i, j) holds all of row i of A's
  // blocks and all of column j of B's blocks.
  std::vector<std::vector<Matrix>> row_a(p);  // indexed by rank; [k] = A(i,k)
  std::vector<std::vector<Matrix>> col_b(p);  // indexed by rank; [k] = B(k,j)

  const double m_words = static_cast<double>(bw);
  const double log_p = std::log2(static_cast<double>(p));
  machine.begin_phase("allgather-a");
  for (std::size_t i = 0; i < sp; ++i) {
    std::vector<ProcId> group;
    std::vector<Matrix> contribs;
    for (std::size_t j = 0; j < sp; ++j) {
      group.push_back(rank(i, j));
      contribs.push_back(a_blocks[i * sp + j]);
    }
    std::vector<std::vector<Matrix>> gathered;
    switch (variant_) {
      case Variant::kOnePortRing:
        gathered = all_to_all_ring(machine, group, kTagA, std::move(contribs));
        break;
      case Variant::kOnePortRecursiveDoubling:
        gathered = all_to_all_recursive_doubling(machine, group, kTagA,
                                                 std::move(contribs));
        break;
      case Variant::kAllPort: {
        // Section 7.1: both matrices move simultaneously on all ports for a
        // combined cost of 2 t_w n^2 sqrt(p)/(p log p) + (1/2) t_s log p
        // (Eq. 16); half is charged to the row phase, half to the column
        // phase below.
        const double phase_time =
            t_allport_phase(params, m_words, sp, log_p);
        gathered = all_to_all_modeled(machine, group, std::move(contribs),
                                      phase_time);
        break;
      }
    }
    for (std::size_t j = 0; j < sp; ++j) {
      row_a[rank(i, j)] = std::move(gathered[j]);
      machine.note_alloc(rank(i, j), (sp - 1) * bw);
    }
  }
  machine.end_phase();
  machine.begin_phase("allgather-b");
  for (std::size_t j = 0; j < sp; ++j) {
    std::vector<ProcId> group;
    std::vector<Matrix> contribs;
    for (std::size_t i = 0; i < sp; ++i) {
      group.push_back(rank(i, j));
      contribs.push_back(b_blocks[i * sp + j]);
    }
    std::vector<std::vector<Matrix>> gathered;
    switch (variant_) {
      case Variant::kOnePortRing:
        gathered = all_to_all_ring(machine, group, kTagB, std::move(contribs));
        break;
      case Variant::kOnePortRecursiveDoubling:
        gathered = all_to_all_recursive_doubling(machine, group, kTagB,
                                                 std::move(contribs));
        break;
      case Variant::kAllPort: {
        const double phase_time =
            t_allport_phase(params, m_words, sp, log_p);
        gathered = all_to_all_modeled(machine, group, std::move(contribs),
                                      phase_time);
        break;
      }
    }
    for (std::size_t i = 0; i < sp; ++i) {
      col_b[rank(i, j)] = std::move(gathered[i]);
      machine.note_alloc(rank(i, j), (sp - 1) * bw);
    }
  }
  machine.end_phase();

  // Local phase: C(i,j) = sum_k A(i,k) * B(k,j) — sqrt(p) block multiplies,
  // n^3/p multiply-add units in total per processor.
  Matrix c(n, n);
  std::vector<Matrix> c_block(p);
  std::vector<SimMachine::ComputeTask> phase;
  phase.reserve(p);
  for (std::size_t i = 0; i < sp; ++i) {
    for (std::size_t j = 0; j < sp; ++j) {
      const ProcId pid = rank(i, j);
      c_block[pid] = Matrix(grid.block_rows(), grid.block_cols());
      SimMachine::ComputeTask task{pid, &c_block[pid], {}};
      task.products.reserve(sp);
      for (std::size_t k = 0; k < sp; ++k) {
        task.products.emplace_back(&row_a[pid][k], &col_b[pid][k]);
      }
      phase.push_back(std::move(task));
    }
  }
  {
    PhaseScope scope(machine, "multiply");
    machine.compute_multiply_add_batch(phase);
  }
  for (std::size_t i = 0; i < sp; ++i) {
    for (std::size_t j = 0; j < sp; ++j) {
      const ProcId pid = rank(i, j);
      machine.note_alloc(pid, bw);
      grid.insert(c, c_block[pid], i, j);
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

double SimpleAlgorithm::t_allport_phase(const MachineParams& params,
                                        double block_words, std::size_t sp,
                                        double log_p) {
  // Half of Eq. 16's communication term (the other half covers the other
  // matrix, which moves simultaneously on the remaining channels):
  //   (1/2) * [ 2 t_w m sqrt(p) / log p + (1/2) t_s log p ]
  if (sp <= 1 || log_p <= 0.0) return 0.0;  // single processor: no channels
  const double words_total = block_words * static_cast<double>(sp);
  return params.t_w * words_total / log_p + 0.25 * params.t_s * log_p;
}

}  // namespace hpmm
