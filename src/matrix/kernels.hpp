#pragma once

#include <cstdint>
#include <string>

#include "matrix/matrix.hpp"

namespace hpmm {

class ThreadPool;  // util/thread_pool.hpp

/// Local matrix-multiply kernel variants. All compute C (+)= A * B with the
/// conventional O(n^3) algorithm — the paper considers only this algorithm
/// (Section 2, footnote 1). Every kernel accumulates each C element in
/// strictly increasing k order, so all of them (and any thread count) agree
/// bit-for-bit apart from compiler-level FMA contraction differences.
enum class Kernel : std::uint8_t {
  kNaiveIjk,     ///< textbook triple loop, i-j-k order
  kCacheIkj,     ///< i-k-j order: unit-stride inner loop over B and C rows
  kBlocked,      ///< square tiling for cache reuse, ikj inside tiles
  kTransposedB,  ///< multiplies against an explicit transpose of B
  kPacked        ///< register-blocked micro-kernel over packed B panels
};

/// Every kernel, in declaration order.
inline constexpr Kernel kAllKernels[] = {Kernel::kNaiveIjk, Kernel::kCacheIkj,
                                         Kernel::kBlocked, Kernel::kTransposedB,
                                         Kernel::kPacked};

/// Human-readable kernel name ("naive-ijk", ...).
std::string to_string(Kernel k);

/// Inverse of to_string; throws PreconditionError (listing the valid names)
/// for anything else.
Kernel kernel_from_string(const std::string& name);

/// Host execution policy for local numerics: which kernel runs the real
/// multiply-adds and how many host threads drive them. Purely a wall-clock
/// concern — simulated virtual time never depends on it.
struct ExecPolicy {
  Kernel kernel = Kernel::kCacheIkj;
  unsigned threads = 1;  ///< host threads for local numerics (>= 1)
};

/// C += A * B using the requested kernel.
/// Shapes: A is m x k, B is k x n, C is m x n (validated).
/// A non-null `pool` parallelizes Kernel::kPacked over row panels; the
/// result is bit-identical for every pool size (each C element is owned by
/// exactly one thread and accumulated in the same k order). Other kernels
/// ignore the pool.
void multiply_add(const Matrix& a, const Matrix& b, Matrix& c,
                  Kernel kernel = Kernel::kCacheIkj, ThreadPool* pool = nullptr);

/// Returns A * B (freshly allocated) using the requested kernel.
Matrix multiply(const Matrix& a, const Matrix& b,
                Kernel kernel = Kernel::kCacheIkj, ThreadPool* pool = nullptr);

/// Number of useful multiply-add operations for an (m x k) * (k x n) product;
/// this is the paper's unit of "problem size" W (one mult + one add = 1).
std::uint64_t matmul_flops(std::size_t m, std::size_t k, std::size_t n) noexcept;

/// Tile edge used by Kernel::kBlocked.
inline constexpr std::size_t kBlockedTile = 32;

/// Register micro-tile of Kernel::kPacked: each micro-kernel call keeps an
/// MR x NR accumulator block in registers (sized for 4 x 8 doubles = one
/// AVX2 register file with room for operands).
inline constexpr std::size_t kPackedMR = 4;
inline constexpr std::size_t kPackedNR = 8;

/// Cache-level tile sizes of Kernel::kPacked. The numerical result is
/// independent of these (accumulation order per C element is always plain
/// increasing k); they only steer cache reuse and the threading grain.
struct PackedTuning {
  std::size_t kc = 256;  ///< K-panel depth: one packed B panel spans kc rows
  std::size_t mc = 64;   ///< rows per work item when threading over panels
};

/// Process-wide tuning used by Kernel::kPacked. The first call (unless
/// set_packed_tuning was used) runs a small autotuner: each candidate tile
/// pair multiplies a probe matrix and the fastest wins. Thread-safe.
PackedTuning packed_tuning();

/// Pin the process-wide packed tuning (tests, benchmark sweeps); overrides
/// any autotuned choice. Throws PreconditionError on zero tile sizes.
void set_packed_tuning(const PackedTuning& tuning);

/// Time the candidate tile sizes on this machine with an n x n probe
/// multiply and return the fastest. Called lazily by packed_tuning().
PackedTuning autotune_packed(std::size_t probe_n = 192);

/// Host wall-clock profile of Kernel::kPacked invocations — the real time
/// the micro-kernel spent, as opposed to the simulator's virtual charges.
struct KernelWallProfile {
  std::uint64_t calls = 0;  ///< packed multiply_add invocations
  double seconds = 0.0;     ///< steady_clock wall time inside them
};

/// Toggle process-wide packed-kernel wall profiling (off by default: one
/// steady_clock pair per call when on, nothing otherwise). Thread-safe;
/// counts accumulate across threads.
void enable_kernel_wall_profile(bool on) noexcept;
KernelWallProfile kernel_wall_profile() noexcept;
void reset_kernel_wall_profile() noexcept;

}  // namespace hpmm
