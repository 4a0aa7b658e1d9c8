#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hpmm {

/// Thrown when a caller passes arguments that violate a documented
/// precondition (e.g. a processor count outside an algorithm's range of
/// applicability).
class PreconditionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant is violated; indicates a bug in hpmm
/// itself rather than in the caller.
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
/// Failure path of require()/ensure(): builds "file:line: message" and throws
/// PreconditionError, or InternalError when `internal` is set. Kept out of
/// line so a passing check costs one branch and no allocation.
[[noreturn, gnu::cold]] void throw_check_failure(bool internal,
                                                 std::string_view message,
                                                 const std::source_location& loc);
}  // namespace detail

/// Validate a documented precondition; throws PreconditionError with the
/// call site baked into the message.
inline void require(bool condition, std::string_view message,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    detail::throw_check_failure(false, message, loc);
  }
}

/// Validate an internal invariant; throws InternalError on failure.
inline void ensure(bool condition, std::string_view message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    detail::throw_check_failure(true, message, loc);
  }
}

}  // namespace hpmm
