#include "serve/admission.hpp"

#include "util/error.hpp"

namespace hpmm {

CircuitBreaker::CircuitBreaker(unsigned threshold, double cooldown)
    : threshold_(threshold), cooldown_(cooldown) {
  require(threshold >= 1, "CircuitBreaker: threshold must be >= 1");
  require(cooldown >= 0.0, "CircuitBreaker: cooldown must be >= 0");
}

bool CircuitBreaker::can_admit(double now) const noexcept {
  switch (state(now)) {
    case State::kClosed:
      return true;
    case State::kOpen:
      return false;
    case State::kHalfOpen:
      // probe_in_flight_ is cleared whenever the breaker (re)opens, so a
      // just-cooled-down breaker always has a free probe.
      return !probe_in_flight_;
  }
  return false;
}

void CircuitBreaker::note_admitted(double now) {
  if (state_ == State::kOpen && now >= opened_at_ + cooldown_) {
    state_ = State::kHalfOpen;
    probe_in_flight_ = false;
  }
  if (state_ == State::kHalfOpen) probe_in_flight_ = true;
}

bool CircuitBreaker::admit(double now) {
  if (!can_admit(now)) return false;
  note_admitted(now);
  return true;
}

void CircuitBreaker::record_success() {
  state_ = State::kClosed;
  failures_ = 0;
  probe_in_flight_ = false;
}

void CircuitBreaker::record_failure(double now) {
  ++failures_;
  if (state_ == State::kHalfOpen ||
      (state_ == State::kClosed && failures_ >= threshold_)) {
    state_ = State::kOpen;
    opened_at_ = now;
    probe_in_flight_ = false;
    ++trips_;
  }
}

CircuitBreaker::State CircuitBreaker::state(double now) const noexcept {
  if (state_ == State::kOpen && now >= opened_at_ + cooldown_) {
    return State::kHalfOpen;
  }
  return state_;
}

const char* to_string(CircuitBreaker::State state) noexcept {
  switch (state) {
    case CircuitBreaker::State::kClosed: return "closed";
    case CircuitBreaker::State::kOpen: return "open";
    case CircuitBreaker::State::kHalfOpen: return "half_open";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {
  require(config.queue_capacity >= 1,
          "AdmissionController: queue_capacity must be >= 1");
  require(config.tenant_quota >= 1,
          "AdmissionController: tenant_quota must be >= 1");
  // Breakers are created lazily per tenant; validate their limits now so a
  // bad configuration fails at construction, not on the first arrival.
  (void)CircuitBreaker(config.breaker_threshold, config.breaker_cooldown);
}

ServeOutcome AdmissionController::try_admit(const std::string& tenant,
                                            double now) {
  CircuitBreaker& breaker = breaker_for(tenant);
  if (!breaker.can_admit(now)) return ServeOutcome::kRejectedBreaker;
  if (in_flight_ >= config_.queue_capacity) {
    return ServeOutcome::kRejectedQueueFull;
  }
  if (tenant_in_flight_[tenant] >= config_.tenant_quota) {
    return ServeOutcome::kRejectedQuota;
  }
  breaker.note_admitted(now);
  ++in_flight_;
  ++tenant_in_flight_[tenant];
  return ServeOutcome::kOk;
}

void AdmissionController::on_final(const std::string& tenant, double now,
                                   bool success) {
  const auto it = tenant_in_flight_.find(tenant);
  if (in_flight_ == 0 || it == tenant_in_flight_.end() || it->second == 0) {
    require(false, "AdmissionController::on_final: tenant '" + tenant +
                       "' has no admitted request in flight");
  }
  --in_flight_;
  --it->second;
  CircuitBreaker& breaker = breaker_for(tenant);
  if (success) {
    breaker.record_success();
  } else {
    breaker.record_failure(now);
  }
}

std::size_t AdmissionController::tenant_in_flight(
    const std::string& tenant) const {
  const auto it = tenant_in_flight_.find(tenant);
  return it == tenant_in_flight_.end() ? 0 : it->second;
}

const CircuitBreaker* AdmissionController::breaker(
    const std::string& tenant) const {
  const auto it = breakers_.find(tenant);
  return it == breakers_.end() ? nullptr : &it->second;
}

CircuitBreaker& AdmissionController::breaker_for(const std::string& tenant) {
  const auto it = breakers_.find(tenant);
  if (it != breakers_.end()) return it->second;
  return breakers_
      .emplace(tenant, CircuitBreaker(config_.breaker_threshold,
                                      config_.breaker_cooldown))
      .first->second;
}

}  // namespace hpmm
