#include "serve/request.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace hpmm {

const char* to_string(ServeOutcome outcome) noexcept {
  switch (outcome) {
    case ServeOutcome::kOk: return "ok";
    case ServeOutcome::kDeadlineExceeded: return "deadline_exceeded";
    case ServeOutcome::kFailed: return "failed";
    case ServeOutcome::kRejectedInvalid: return "rejected_invalid";
    case ServeOutcome::kRejectedInfeasible: return "rejected_infeasible";
    case ServeOutcome::kRejectedBreaker: return "rejected_breaker";
    case ServeOutcome::kRejectedQueueFull: return "rejected_queue_full";
    case ServeOutcome::kRejectedQuota: return "rejected_quota";
  }
  return "?";
}

bool is_rejection(ServeOutcome outcome) noexcept {
  switch (outcome) {
    case ServeOutcome::kRejectedInvalid:
    case ServeOutcome::kRejectedInfeasible:
    case ServeOutcome::kRejectedBreaker:
    case ServeOutcome::kRejectedQueueFull:
    case ServeOutcome::kRejectedQuota:
      return true;
    case ServeOutcome::kOk:
    case ServeOutcome::kDeadlineExceeded:
    case ServeOutcome::kFailed:
      return false;
  }
  return false;
}

MachineParams serve_machine_params(const std::string& name) {
  return machines::preset(name);
}

std::shared_ptr<const FaultPlan> fault_plan_for_attempt(
    const std::shared_ptr<const FaultPlan>& base, unsigned attempt) {
  if (!base || attempt == 0) return base;
  auto plan = std::make_shared<FaultPlan>(*base);
  // Golden-ratio stride: well-separated seeds, distinct for every attempt.
  plan->seed = base->seed + 0x9E3779B97F4A7C15ULL * attempt;
  return plan;
}

Matrix request_operand(std::size_t n, std::uint64_t id, std::uint64_t salt) {
  require(n >= 1, "request_operand: n must be positive");
  Rng rng(0x5E57EED5ULL ^ (id << 8) ^ salt);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m(i, j) = std::floor(rng.uniform(1.0, 9.0));
    }
  }
  return m;
}

}  // namespace hpmm
