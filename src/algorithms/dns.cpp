#include "algorithms/dns.hpp"

#include <cmath>

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
constexpr int kTagAlignA = 5;
constexpr int kTagAlignB = 6;
constexpr int kTagShiftA = 7;
constexpr int kTagShiftB = 8;
constexpr int kTagReduce = 9;

}  // namespace

void DnsAlgorithm::check_applicable(std::size_t n, std::size_t p) const {
  require(p >= 1, "dns: need at least one processor");
  require(is_pow2(n), "dns: n must be a power of two (hypercube addressing)");
  const std::size_t n2 = n * n;
  require(p >= n2, "dns: at least n^2 processors required (Table 1)");
  require(p % n2 == 0, "dns: p must be a multiple of n^2");
  const std::size_t r = p / n2;
  require(r <= n, "dns: at most n^3 processors usable");
  require(is_pow2(r), "dns: p/n^2 must be a power of two");
}

MatmulResult DnsAlgorithm::run(const Matrix& a, const Matrix& b, std::size_t p,
                               const MachineParams& params) const {
  const std::size_t n = validated_order(a, b);
  check_applicable(n, p);
  const std::size_t r = p / (n * n);  // superprocessor grid side
  const std::size_t m = n / r;        // internal mesh side (n/r)
  const std::size_t mm = m * m;       // processors per superprocessor

  auto topo = std::make_shared<Hypercube>(Hypercube::with_procs(p));
  SimMachine machine(topo, params);

  // Rank layout: [ i | j | k | u*m+v ] — superprocessor coordinates in the
  // high bits, internal mesh position in the low bits, so that every i/j/k
  // line and every internal mesh row is a hypercube subcube.
  const auto rank = [&](std::size_t i, std::size_t j, std::size_t k,
                        std::size_t u, std::size_t v) {
    return static_cast<ProcId>((((i * r + j) * r + k) * mm) + u * m + v);
  };

  // a_elem/b_elem: the single matrix element currently held by each
  // processor (1x1 matrices so they travel as ordinary messages).
  std::vector<Matrix> a_elem(p), b_elem(p);

  // Initial layout (plane i = 0): processor (0, j, k, u, v) holds
  // A[j*m+u][k*m+v] and B[j*m+u][k*m+v].
  for (std::size_t j = 0; j < r; ++j) {
    for (std::size_t k = 0; k < r; ++k) {
      for (std::size_t u = 0; u < m; ++u) {
        for (std::size_t v = 0; v < m; ++v) {
          const ProcId pid = rank(0, j, k, u, v);
          Matrix ea(1, 1), eb(1, 1);
          ea(0, 0) = a(j * m + u, k * m + v);
          eb(0, 0) = b(j * m + u, k * m + v);
          a_elem[pid] = std::move(ea);
          b_elem[pid] = std::move(eb);
          machine.note_alloc(pid, 2);
        }
      }
    }
  }

  // --- Stage 1a: route A elements from (0, j, t) to (t, j, t) with
  // dimension-ordered hops along the i axis (log r rounds, worst case).
  // The element for A block (j, t) travels up its own (j, t, u, v) i-line,
  // so no two messages ever contend for a processor.
  machine.begin_phase("move-a");
  for (std::size_t dbit = 1; dbit < r; dbit <<= 1) {
    std::vector<Message> msgs;
    for (std::size_t j = 0; j < r; ++j) {
      for (std::size_t t = 0; t < r; ++t) {
        if ((t & dbit) == 0) continue;
        const std::size_t cur = t & (dbit - 1);
        for (std::size_t u = 0; u < m; ++u) {
          for (std::size_t v = 0; v < m; ++v) {
            const ProcId src = rank(cur, j, t, u, v);
            const ProcId dst = rank(cur | dbit, j, t, u, v);
            msgs.emplace_back(src, dst, kTagMoveA, std::move(a_elem[src]));
          }
        }
      }
    }
    if (msgs.empty()) continue;
    machine.exchange(std::move(msgs));
    for (std::size_t j = 0; j < r; ++j) {
      for (std::size_t t = 0; t < r; ++t) {
        if ((t & dbit) == 0) continue;
        const std::size_t cur = (t & (dbit - 1)) | dbit;
        for (std::size_t u = 0; u < m; ++u) {
          for (std::size_t v = 0; v < m; ++v) {
            const ProcId dst = rank(cur, j, t, u, v);
            a_elem[dst] = std::move(machine.receive(dst, kTagMoveA).payload);
          }
        }
      }
    }
  }

  machine.synchronize();  // phase barrier: simulated time decomposes as Eq. 6
  machine.end_phase();

  // --- Stage 1b: same for B, from (0, t, k) to (t, t, k).
  machine.begin_phase("move-b");
  for (std::size_t dbit = 1; dbit < r; dbit <<= 1) {
    std::vector<Message> msgs;
    for (std::size_t t = 0; t < r; ++t) {
      if ((t & dbit) == 0) continue;
      const std::size_t cur = t & (dbit - 1);
      for (std::size_t k = 0; k < r; ++k) {
        for (std::size_t u = 0; u < m; ++u) {
          for (std::size_t v = 0; v < m; ++v) {
            const ProcId src = rank(cur, t, k, u, v);
            const ProcId dst = rank(cur | dbit, t, k, u, v);
            msgs.emplace_back(src, dst, kTagMoveB, std::move(b_elem[src]));
          }
        }
      }
    }
    if (msgs.empty()) continue;
    machine.exchange(std::move(msgs));
    for (std::size_t t = 0; t < r; ++t) {
      if ((t & dbit) == 0) continue;
      const std::size_t cur = (t & (dbit - 1)) | dbit;
      for (std::size_t k = 0; k < r; ++k) {
        for (std::size_t u = 0; u < m; ++u) {
          for (std::size_t v = 0; v < m; ++v) {
            const ProcId dst = rank(cur, t, k, u, v);
            b_elem[dst] = std::move(machine.receive(dst, kTagMoveB).payload);
          }
        }
      }
    }
  }

  machine.synchronize();
  machine.end_phase();

  // --- Stage 1c: broadcast A along k-lines: (i, j, i) -> (i, j, *).
  // Superprocessor (i, j, k) must hold A block (j, i), element [u][v].
  if (r > 1) {
    machine.begin_phase("broadcast-a");
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < r; ++j) {
        for (std::size_t u = 0; u < m; ++u) {
          for (std::size_t v = 0; v < m; ++v) {
            std::vector<ProcId> group;
            group.reserve(r);
            for (std::size_t k = 0; k < r; ++k) group.push_back(rank(i, j, k, u, v));
            auto copies = broadcast_binomial(machine, group, i, kTagBcastA,
                                             std::move(a_elem[group[i]]));
            for (std::size_t k = 0; k < r; ++k) {
              a_elem[group[k]] = std::move(copies[k]);
            }
          }
        }
      }
    }
    machine.synchronize();
    machine.end_phase();
    // --- Stage 1d: broadcast B along j-lines: (i, i, k) -> (i, *, k).
    machine.begin_phase("broadcast-b");
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t k = 0; k < r; ++k) {
        for (std::size_t u = 0; u < m; ++u) {
          for (std::size_t v = 0; v < m; ++v) {
            std::vector<ProcId> group;
            group.reserve(r);
            for (std::size_t j = 0; j < r; ++j) group.push_back(rank(i, j, k, u, v));
            auto copies = broadcast_binomial(machine, group, i, kTagBcastB,
                                             std::move(b_elem[group[i]]));
            for (std::size_t j = 0; j < r; ++j) {
              b_elem[group[j]] = std::move(copies[j]);
            }
          }
        }
      }
    }
    machine.synchronize();
    machine.end_phase();
  }

  machine.synchronize();

  // --- Stage 2: one-element-per-processor Cannon inside every
  // superprocessor: align, then m multiply-shift steps. (m = 1 makes this a
  // single scalar multiply-add — the classic DNS case.)
  std::vector<Matrix> c_elem(p);
  for (ProcId pid = 0; pid < p; ++pid) c_elem[pid] = Matrix(1, 1);

  const auto for_all_superprocs = [&](auto&& fn) {
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < r; ++j) {
        for (std::size_t k = 0; k < r; ++k) fn(i, j, k);
      }
    }
  };

  if (m > 1) {
    // Alignment: element (u, v) of A moves left by u; of B moves up by v.
    PhaseScope scope(machine, "align");
    std::vector<Message> align_a, align_b;
    for_all_superprocs([&](std::size_t i, std::size_t j, std::size_t k) {
      for (std::size_t u = 0; u < m; ++u) {
        for (std::size_t v = 0; v < m; ++v) {
          if (u != 0) {
            align_a.emplace_back(rank(i, j, k, u, v),
                                 rank(i, j, k, u, (v + m - u) % m), kTagAlignA,
                                 std::move(a_elem[rank(i, j, k, u, v)]));
          }
          if (v != 0) {
            align_b.emplace_back(rank(i, j, k, u, v),
                                 rank(i, j, k, (u + m - v) % m, v), kTagAlignB,
                                 std::move(b_elem[rank(i, j, k, u, v)]));
          }
        }
      }
    });
    machine.exchange(std::move(align_a));
    machine.exchange(std::move(align_b));
    for_all_superprocs([&](std::size_t i, std::size_t j, std::size_t k) {
      for (std::size_t u = 0; u < m; ++u) {
        for (std::size_t v = 0; v < m; ++v) {
          const ProcId pid = rank(i, j, k, u, v);
          if (u != 0) {
            a_elem[pid] = std::move(machine.receive(pid, kTagAlignA).payload);
          }
          if (v != 0) {
            b_elem[pid] = std::move(machine.receive(pid, kTagAlignB).payload);
          }
        }
      }
    });
  }

  for (std::size_t step = 0; step < m; ++step) {
    std::vector<SimMachine::ComputeTask> phase;
    phase.reserve(p);
    for (ProcId pid = 0; pid < p; ++pid) {
      phase.push_back({pid, &c_elem[pid], {{&a_elem[pid], &b_elem[pid]}}});
    }
    {
      PhaseScope scope(machine, "multiply");
      machine.compute_multiply_add_batch(phase);
    }
    if (step + 1 == m) break;
    PhaseScope scope(machine, "shift");
    std::vector<Message> shift_a, shift_b;
    for_all_superprocs([&](std::size_t i, std::size_t j, std::size_t k) {
      for (std::size_t u = 0; u < m; ++u) {
        for (std::size_t v = 0; v < m; ++v) {
          const ProcId pid = rank(i, j, k, u, v);
          shift_a.emplace_back(pid, rank(i, j, k, u, (v + m - 1) % m), kTagShiftA,
                               std::move(a_elem[pid]));
          shift_b.emplace_back(pid, rank(i, j, k, (u + m - 1) % m, v), kTagShiftB,
                               std::move(b_elem[pid]));
        }
      }
    });
    machine.exchange(std::move(shift_a));
    machine.exchange(std::move(shift_b));
    for (ProcId pid = 0; pid < p; ++pid) {
      a_elem[pid] = std::move(machine.receive(pid, kTagShiftA).payload);
      b_elem[pid] = std::move(machine.receive(pid, kTagShiftB).payload);
    }
  }

  machine.synchronize();

  // --- Stage 3: sum the r partial products along each i-line into the
  // i = 0 plane (binomial tree, log r rounds of one-word messages).
  Matrix c(n, n);
  machine.begin_phase("reduce");
  for (std::size_t j = 0; j < r; ++j) {
    for (std::size_t k = 0; k < r; ++k) {
      for (std::size_t u = 0; u < m; ++u) {
        for (std::size_t v = 0; v < m; ++v) {
          std::vector<ProcId> group;
          std::vector<Matrix> contribs;
          group.reserve(r);
          contribs.reserve(r);
          for (std::size_t i = 0; i < r; ++i) {
            group.push_back(rank(i, j, k, u, v));
            contribs.push_back(std::move(c_elem[rank(i, j, k, u, v)]));
          }
          Matrix sum = reduce_binomial(machine, group, 0, kTagReduce,
                                       std::move(contribs));
          c(j * m + u, k * m + v) = sum(0, 0);
        }
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
