#include "sim/fault.hpp"

#include <cstring>
#include <span>

#include "util/error.hpp"
#include "util/table.hpp"

namespace hpmm {
namespace {

/// SplitMix64 finalizer: a well-mixed 64-bit hash of a 64-bit input.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits of a hash.
double to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::string percent(double prob) {
  return format_number(prob * 100.0, 3) + "%";
}

}  // namespace

const char* to_string(AbftMode mode) noexcept {
  switch (mode) {
    case AbftMode::kOff: return "off";
    case AbftMode::kDetect: return "detect";
    case AbftMode::kCorrect: return "correct";
  }
  return "?";
}

bool FaultPlan::active() const noexcept {
  if (drop_prob > 0.0 || duplicate_prob > 0.0 || delay_prob > 0.0 ||
      corrupt_prob > 0.0) {
    return true;
  }
  for (const auto& s : stragglers) {
    if (s.factor != 1.0) return true;
  }
  return !failstops.empty();
}

std::string FaultPlan::summary() const {
  std::string s = "drop=" + percent(drop_prob) + " dup=" + percent(duplicate_prob) +
                  " delay=" + percent(delay_prob) + " (x" +
                  format_number(delay_factor, 3) + ") corrupt=" +
                  percent(corrupt_prob);
  s += " stragglers=[";
  for (std::size_t i = 0; i < stragglers.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(stragglers[i].pid) + ":" +
         format_number(stragglers[i].factor, 3);
  }
  s += "] failstops=[";
  for (std::size_t i = 0; i < failstops.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(failstops[i].pid) + "@" +
         format_number(failstops[i].at_time, 4);
  }
  s += "] abft=";
  s += to_string(abft);
  s += reliable ? " retry=on" : " retry=off";
  s += " seed=" + std::to_string(seed);
  return s;
}

std::string FaultStats::summary() const {
  std::string s = "drops=" + std::to_string(transmissions_dropped) +
                  " rexmit=" + std::to_string(retransmissions) +
                  " dup=" + std::to_string(duplicates_suppressed + duplicates_delivered) +
                  " delayed=" + std::to_string(deliveries_delayed) +
                  " corrupted=" + std::to_string(elements_corrupted);
  if (abft_detected || abft_corrected) {
    s += " abft-detected=" + std::to_string(abft_detected) +
         " abft-corrected=" + std::to_string(abft_corrected);
  }
  if (messages_lost) s += " lost=" + std::to_string(messages_lost);
  return s;
}

ProcessorFailure::ProcessorFailure(ProcId pid, double at_time)
    : std::runtime_error("processor " + std::to_string(pid) +
                         " fail-stopped at t=" + format_number(at_time, 6)),
      pid_(pid),
      at_time_(at_time) {}

DeadlineExceeded::DeadlineExceeded(ProcId pid, double budget, double at_time)
    : std::runtime_error("deadline exceeded: processor " + std::to_string(pid) +
                         " passed the virtual-time budget " +
                         format_number(budget, 6) + " at t=" +
                         format_number(at_time, 6)),
      pid_(pid),
      budget_(budget),
      at_time_(at_time) {}

FaultInjector::FaultInjector(std::shared_ptr<const FaultPlan> plan)
    : plan_(std::move(plan)) {
  require(plan_ != nullptr, "FaultInjector: plan must not be null");
  const auto valid_prob = [](double v) { return v >= 0.0 && v <= 1.0; };
  require(valid_prob(plan_->drop_prob) && valid_prob(plan_->duplicate_prob) &&
              valid_prob(plan_->delay_prob) && valid_prob(plan_->corrupt_prob),
          "FaultPlan: probabilities must be within [0, 1]");
  require(plan_->delay_factor >= 0.0, "FaultPlan: negative delay_factor");
  require(!plan_->reliable || plan_->rto_factor > 0.0,
          "FaultPlan: rto_factor must be positive when retrying");
  require(!plan_->reliable || plan_->rto_backoff >= 1.0,
          "FaultPlan: rto_backoff must be >= 1");
  for (const auto& s : plan_->stragglers) {
    require(s.factor >= 1.0,
            "FaultPlan: straggler factor must be >= 1 (a slowdown)");
  }
  for (const auto& f : plan_->failstops) {
    require(f.at_time >= 0.0, "FaultPlan: fail-stop time must be >= 0");
  }
}

std::uint64_t FaultInjector::draw(const Message& m, std::uint64_t round,
                                  unsigned attempt, std::uint64_t salt) const {
  std::uint64_t h = mix64(plan_->seed ^ salt);
  h = mix64(h ^ round);
  h = mix64(h ^ (static_cast<std::uint64_t>(m.src) << 32 | m.dst));
  h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.tag)) << 8 |
                 attempt));
  return h;
}

MessageFate FaultInjector::fate(const Message& m, std::uint64_t round,
                                unsigned attempt, double base_cost) const {
  MessageFate f;
  if (plan_->drop_prob > 0.0) {
    f.dropped = to_unit(draw(m, round, attempt, 0xD80FULL)) < plan_->drop_prob;
  }
  if (f.dropped) return f;  // a lost transmission has no other fate
  if (plan_->duplicate_prob > 0.0) {
    f.duplicated =
        to_unit(draw(m, round, attempt, 0xD0B1EULL)) < plan_->duplicate_prob;
  }
  if (plan_->corrupt_prob > 0.0) {
    f.corrupted =
        to_unit(draw(m, round, attempt, 0xC0BB17ULL)) < plan_->corrupt_prob;
  }
  if (plan_->delay_prob > 0.0 &&
      to_unit(draw(m, round, attempt, 0xDE1A7ULL)) < plan_->delay_prob) {
    f.delay = plan_->delay_factor * base_cost;
  }
  return f;
}

double FaultInjector::slowdown(ProcId pid) const noexcept {
  for (const auto& s : plan_->stragglers) {
    if (s.pid == pid) return s.factor;
  }
  return 1.0;
}

std::optional<double> FaultInjector::fail_time(ProcId pid) const noexcept {
  for (const auto& f : plan_->failstops) {
    if (f.pid == pid) return f.at_time;
  }
  return std::nullopt;
}

std::size_t FaultInjector::corrupt_word_index(const Message& m,
                                              std::uint64_t round,
                                              unsigned attempt) const {
  const std::size_t words = m.words();
  if (words == 0) return 0;
  return static_cast<std::size_t>(draw(m, round, attempt, 0x1DE7ULL) % words);
}

void corrupt_message_word(Message& m, std::size_t word_index) {
  const std::span<double> words = m.payload.data();
  if (word_index >= words.size()) return;
  double& value = words[word_index];
  // Flip a high mantissa bit: a large, sign-preserving perturbation that
  // never produces NaN/Inf (the exponent bits are untouched).
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  bits ^= 1ULL << 51;
  std::memcpy(&value, &bits, sizeof bits);
}

}  // namespace hpmm
