#include "matrix/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace hpmm {
namespace {

void mul_naive_ijk(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t l = 0; l < k; ++l) acc += a(i, l) * b(l, j);
      c(i, j) += acc;
    }
  }
}

void mul_cache_ikj(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    double* crow = c.row_ptr(i);
    for (std::size_t l = 0; l < k; ++l) {
      const double aval = a(i, l);
      const double* brow = b.row_ptr(l);
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

void mul_blocked(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  constexpr std::size_t t = kBlockedTile;
  for (std::size_t i0 = 0; i0 < m; i0 += t) {
    const std::size_t i1 = std::min(i0 + t, m);
    for (std::size_t l0 = 0; l0 < k; l0 += t) {
      const std::size_t l1 = std::min(l0 + t, k);
      for (std::size_t j0 = 0; j0 < n; j0 += t) {
        const std::size_t j1 = std::min(j0 + t, n);
        for (std::size_t i = i0; i < i1; ++i) {
          double* crow = c.row_ptr(i);
          for (std::size_t l = l0; l < l1; ++l) {
            const double aval = a(i, l);
            const double* brow = b.row_ptr(l);
            for (std::size_t j = j0; j < j1; ++j) crow[j] += aval * brow[j];
          }
        }
      }
    }
  }
}

void mul_transposed_b(const Matrix& a, const Matrix& b, Matrix& c) {
  const Matrix bt = b.transposed();
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a.row_ptr(i);
    for (std::size_t j = 0; j < n; ++j) {
      const double* btrow = bt.row_ptr(j);
      double acc = 0.0;
      for (std::size_t l = 0; l < k; ++l) acc += arow[l] * btrow[l];
      c(i, j) += acc;
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel::kPacked — GotoBLAS-style packed micro-kernel.
//
// Structure: the K dimension is cut into panels of depth kc. For each panel,
// B(k0:k1, :) is packed into column tiles of width NR (zero-padded at the
// right edge) so the micro-kernel streams it with unit stride; then every
// MR-row strip of A sweeps the panel, keeping an MR x NR block of C in
// registers. Each C element is loaded once per panel, accumulated over the
// panel's k range in increasing order, and stored — so the floating-point
// order per element is plain sequential k, independent of kc, mc and of how
// row strips are distributed over threads.

constexpr std::size_t kMR = kPackedMR;
constexpr std::size_t kNR = kPackedNR;

/// Pack B(k0:k1, :) tile-major: tile jt holds columns [jt*NR, (jt+1)*NR),
/// rows k0..k1 contiguously, short tiles padded with zeros. The padding
/// multiplies into accumulator columns that are never stored.
void pack_b_panel(const Matrix& b, std::size_t k0, std::size_t k1,
                  std::vector<double>& buf) {
  const std::size_t n = b.cols();
  const std::size_t depth = k1 - k0;
  const std::size_t tiles = (n + kNR - 1) / kNR;
  buf.resize(tiles * depth * kNR);
  for (std::size_t jt = 0; jt < tiles; ++jt) {
    const std::size_t j0 = jt * kNR;
    const std::size_t w = std::min(kNR, n - j0);
    double* dst = buf.data() + jt * depth * kNR;
    for (std::size_t kk = k0; kk < k1; ++kk) {
      const double* brow = b.row_ptr(kk) + j0;
      for (std::size_t jr = 0; jr < w; ++jr) dst[jr] = brow[jr];
      for (std::size_t jr = w; jr < kNR; ++jr) dst[jr] = 0.0;
      dst += kNR;
    }
  }
}

/// C[i0:i0+h, j0:j0+w] += A[i0:i0+h, k0:k0+depth) * (packed tile `bp`).
/// h <= MR, w <= NR. Rows beyond h replay row i0 into dead accumulator rows
/// (never stored) so the hot loop stays branch-free and full-width.
void micro_kernel(const Matrix& a, const double* bp, std::size_t k0,
                  std::size_t depth, std::size_t i0, std::size_t h, Matrix& c,
                  std::size_t j0, std::size_t w) {
  double acc[kMR][kNR];
  const double* ap[kMR];
  for (std::size_t ir = 0; ir < kMR; ++ir) {
    const std::size_t row = ir < h ? i0 + ir : i0;
    ap[ir] = a.row_ptr(row) + k0;
  }
  for (std::size_t ir = 0; ir < h; ++ir) {
    const double* crow = c.row_ptr(i0 + ir) + j0;
    for (std::size_t jr = 0; jr < w; ++jr) acc[ir][jr] = crow[jr];
    for (std::size_t jr = w; jr < kNR; ++jr) acc[ir][jr] = 0.0;
  }
  for (std::size_t ir = h; ir < kMR; ++ir) {
    for (std::size_t jr = 0; jr < kNR; ++jr) acc[ir][jr] = 0.0;
  }
  for (std::size_t kk = 0; kk < depth; ++kk) {
    const double* brow = bp + kk * kNR;
    for (std::size_t ir = 0; ir < kMR; ++ir) {
      const double aval = ap[ir][kk];
      for (std::size_t jr = 0; jr < kNR; ++jr) {
        acc[ir][jr] += aval * brow[jr];
      }
    }
  }
  for (std::size_t ir = 0; ir < h; ++ir) {
    double* crow = c.row_ptr(i0 + ir) + j0;
    for (std::size_t jr = 0; jr < w; ++jr) crow[jr] = acc[ir][jr];
  }
}

void mul_packed(const Matrix& a, const Matrix& b, Matrix& c,
                const PackedTuning& tuning, ThreadPool* pool) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0 || k == 0 || n == 0) return;
  const std::size_t kc = std::max<std::size_t>(1, tuning.kc);
  const std::size_t mc = std::max<std::size_t>(1, tuning.mc);
  const std::size_t tiles = (n + kNR - 1) / kNR;
  const std::size_t strips = (m + mc - 1) / mc;
  std::vector<double> bpanel;
  for (std::size_t k0 = 0; k0 < k; k0 += kc) {
    const std::size_t k1 = std::min(k0 + kc, k);
    const std::size_t depth = k1 - k0;
    pack_b_panel(b, k0, k1, bpanel);
    const auto strip = [&](std::size_t s) {
      const std::size_t i_end = std::min((s + 1) * mc, m);
      for (std::size_t i0 = s * mc; i0 < i_end; i0 += kMR) {
        const std::size_t h = std::min(kMR, i_end - i0);
        for (std::size_t jt = 0; jt < tiles; ++jt) {
          const std::size_t j0 = jt * kNR;
          const std::size_t w = std::min(kNR, n - j0);
          micro_kernel(a, bpanel.data() + jt * depth * kNR, k0, depth, i0, h,
                       c, j0, w);
        }
      }
    };
    if (pool != nullptr && strips > 1) {
      pool->parallel_for(strips, strip);
    } else {
      for (std::size_t s = 0; s < strips; ++s) strip(s);
    }
  }
}

}  // namespace

std::string to_string(Kernel k) {
  switch (k) {
    case Kernel::kNaiveIjk: return "naive-ijk";
    case Kernel::kCacheIkj: return "cache-ikj";
    case Kernel::kBlocked: return "blocked";
    case Kernel::kTransposedB: return "transposed-b";
    case Kernel::kPacked: return "packed";
  }
  return "unknown";
}

Kernel kernel_from_string(const std::string& name) {
  std::string names;
  for (Kernel k : kAllKernels) {
    if (to_string(k) == name) return k;
    names += (names.empty() ? "" : ", ") + to_string(k);
  }
  throw PreconditionError("unknown kernel '" + name + "' (try " + names + ")");
}

namespace {

// Packed-kernel wall profiling (kernels.hpp). Atomics: multiply_add runs on
// pool worker threads during batched compute phases.
std::atomic<bool> g_kernel_profile_on{false};
std::atomic<std::uint64_t> g_kernel_profile_calls{0};
std::atomic<std::uint64_t> g_kernel_profile_nanos{0};

}  // namespace

void multiply_add(const Matrix& a, const Matrix& b, Matrix& c, Kernel kernel,
                  ThreadPool* pool) {
  require(a.cols() == b.rows(), "multiply_add: inner dimensions differ");
  require(c.rows() == a.rows() && c.cols() == b.cols(),
          "multiply_add: C has wrong shape");
  switch (kernel) {
    case Kernel::kNaiveIjk: mul_naive_ijk(a, b, c); return;
    case Kernel::kCacheIkj: mul_cache_ikj(a, b, c); return;
    case Kernel::kBlocked: mul_blocked(a, b, c); return;
    case Kernel::kTransposedB: mul_transposed_b(a, b, c); return;
    case Kernel::kPacked:
      if (g_kernel_profile_on.load(std::memory_order_relaxed)) {
        const auto t0 = std::chrono::steady_clock::now();
        mul_packed(a, b, c, packed_tuning(), pool);
        const auto dt = std::chrono::steady_clock::now() - t0;
        g_kernel_profile_calls.fetch_add(1, std::memory_order_relaxed);
        g_kernel_profile_nanos.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                    .count()),
            std::memory_order_relaxed);
      } else {
        mul_packed(a, b, c, packed_tuning(), pool);
      }
      return;
  }
  throw PreconditionError("multiply_add: unknown kernel");
}

void enable_kernel_wall_profile(bool on) noexcept {
  g_kernel_profile_on.store(on, std::memory_order_relaxed);
}

KernelWallProfile kernel_wall_profile() noexcept {
  KernelWallProfile p;
  p.calls = g_kernel_profile_calls.load(std::memory_order_relaxed);
  p.seconds =
      static_cast<double>(g_kernel_profile_nanos.load(
          std::memory_order_relaxed)) *
      1e-9;
  return p;
}

void reset_kernel_wall_profile() noexcept {
  g_kernel_profile_calls.store(0, std::memory_order_relaxed);
  g_kernel_profile_nanos.store(0, std::memory_order_relaxed);
}

Matrix multiply(const Matrix& a, const Matrix& b, Kernel kernel,
                ThreadPool* pool) {
  Matrix c(a.rows(), b.cols());
  multiply_add(a, b, c, kernel, pool);
  return c;
}

std::uint64_t matmul_flops(std::size_t m, std::size_t k, std::size_t n) noexcept {
  return static_cast<std::uint64_t>(m) * k * n;
}

namespace {

std::mutex g_tuning_mutex;
PackedTuning g_tuning;     // guarded by g_tuning_mutex
bool g_tuned = false;      // guarded by g_tuning_mutex

}  // namespace

PackedTuning packed_tuning() {
  const std::lock_guard<std::mutex> lock(g_tuning_mutex);
  if (!g_tuned) {
    g_tuning = autotune_packed();
    g_tuned = true;
  }
  return g_tuning;
}

void set_packed_tuning(const PackedTuning& tuning) {
  require(tuning.kc >= 1 && tuning.mc >= 1,
          "set_packed_tuning: tile sizes must be >= 1");
  const std::lock_guard<std::mutex> lock(g_tuning_mutex);
  g_tuning = tuning;
  g_tuned = true;
}

PackedTuning autotune_packed(std::size_t probe_n) {
  probe_n = std::max<std::size_t>(kMR * kNR, probe_n);
  Matrix a(probe_n, probe_n), b(probe_n, probe_n), c(probe_n, probe_n);
  for (std::size_t i = 0; i < probe_n; ++i) {
    for (std::size_t j = 0; j < probe_n; ++j) {
      a(i, j) = static_cast<double>((i * 31 + j * 7) % 13) * 0.125;
      b(i, j) = static_cast<double>((i * 17 + j * 3) % 11) * 0.25;
    }
  }
  constexpr std::size_t kcs[] = {64, 128, 256};
  constexpr std::size_t mcs[] = {64, 128};
  PackedTuning best;
  double best_time = std::numeric_limits<double>::infinity();
  for (const std::size_t kc : kcs) {
    for (const std::size_t mc : mcs) {
      const PackedTuning candidate{kc, mc};
      mul_packed(a, b, c, candidate, nullptr);  // warm caches and pages
      const auto start = std::chrono::steady_clock::now();
      mul_packed(a, b, c, candidate, nullptr);
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed < best_time) {
        best_time = elapsed;
        best = candidate;
      }
    }
  }
  return best;
}

}  // namespace hpmm
