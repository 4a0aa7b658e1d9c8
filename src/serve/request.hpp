#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "machine/params.hpp"
#include "matrix/matrix.hpp"
#include "sim/fault.hpp"

namespace hpmm {

/// Final disposition of one serve request (DESIGN.md "Serving mode &
/// robustness envelope"). The four rejections happen at arrival, before any
/// simulation; the other outcomes follow service (possibly after retries).
enum class ServeOutcome : std::uint8_t {
  kOk,                  ///< completed with no uncorrected fault
  kDeadlineExceeded,    ///< aborted when its virtual-time budget ran out
  kFailed,              ///< every allowed attempt ended with a detected fault
  kRejectedInvalid,     ///< unknown algorithm, or n/p of zero
  kRejectedInfeasible,  ///< no formulation applicable at (n, p)
  kRejectedBreaker,     ///< tenant's circuit breaker was open
  kRejectedQueueFull,   ///< server-wide admission queue at capacity
  kRejectedQuota,       ///< tenant's in-flight quota exhausted
};

const char* to_string(ServeOutcome outcome) noexcept;

/// True for the four admission-time rejections.
bool is_rejection(ServeOutcome outcome) noexcept;

/// One request of a serve workload: which multiplication to run, for whom,
/// when it arrives, and under what (optional) injected faults. Produced by
/// the script parser or the workload generators (serve/script.hpp,
/// serve/chaos.hpp).
struct TenantRequest {
  /// Position in the submitted stream; the server overwrites it, and the
  /// operand matrices and retry jitter derive from it, so a request's
  /// numerics depend only on where it sits in the workload.
  std::uint64_t id = 0;
  std::string tenant = "default";
  double arrival = 0.0;  ///< virtual arrival time
  std::string algo;      ///< formulation name; "" lets the selector choose
  std::size_t n = 0;     ///< matrix order
  std::size_t p = 0;     ///< simulated processors
  std::string machine = "ncube2";  ///< preset name (serve_machine_params)
  /// Deadline budget as a multiple of the plan's model-predicted T_p;
  /// 0 defers to the server-wide ServeOptions::deadline_factor.
  double deadline_factor = 0.0;
  /// Injected faults for this request's simulations; null = clean machine.
  std::shared_ptr<const FaultPlan> faults;
};

/// Machine preset by serve-script name (machines::preset: ncube2, future,
/// cm2, cm5 or ideal). Throws PreconditionError for anything else.
MachineParams serve_machine_params(const std::string& name);

/// Copy of `base` with its injection seed re-mixed for retry `attempt`
/// (attempt 0 returns `base` unchanged; null passes through). The injector
/// hashes (seed, round, src, dst, tag), so rerunning the same communication
/// pattern under the same plan reproduces the same faults — a retried
/// request must draw a fresh seed per attempt or it would relive the
/// identical corruption forever.
std::shared_ptr<const FaultPlan> fault_plan_for_attempt(
    const std::shared_ptr<const FaultPlan>& base, unsigned attempt);

/// Deterministic operand matrix for request `id` (`salt` distinguishes A
/// from B): integer entries in [1, 8], so products and ABFT checksums are
/// exact and no payload word is 0.0 — whose mantissa-flip corruption a
/// checksum cannot see.
Matrix request_operand(std::size_t n, std::uint64_t id, std::uint64_t salt);

/// Everything the server recorded about one request.
struct RequestRecord {
  TenantRequest request;
  ServeOutcome outcome = ServeOutcome::kOk;
  unsigned attempts = 0;      ///< service attempts run (0 for rejections)
  std::int64_t slot = -1;     ///< executor slot of the last attempt (-1 if
                              ///< the request was never dispatched)
  bool cache_hit = false;     ///< plan came from the plan cache
  std::string algorithm;      ///< formulation actually run ("" if rejected)
  double deadline = 0.0;      ///< virtual-time budget (0 = unbounded)
  double start = 0.0;         ///< virtual time service first began
  double finish = 0.0;        ///< virtual time of the final event
  double latency = 0.0;       ///< finish - arrival (wait + service + retries)
  double service_time = 0.0;  ///< simulated time of the last attempt
  std::string detail;         ///< failure explanation, "" when kOk
};

}  // namespace hpmm
