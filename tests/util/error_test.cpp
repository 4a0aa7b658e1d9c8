#include "util/error.hpp"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

namespace hpmm {
namespace {

// Runs `check`, which must throw `Error`, and returns its what().
template <class Error, class Check>
std::string what_of(Check check) {
  try {
    check();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "the check did not throw";
  return {};
}

// A failed check names its call site: "<file>:<line>: <message>".
std::string located(int line, const std::string& message) {
  return std::string(__FILE__) + ":" + std::to_string(line) + ": " + message;
}

// The CLI maps the two families to different exit codes (1 and 2), so
// neither may be a subtype of the other.
static_assert(!std::is_base_of_v<PreconditionError, InternalError>);
static_assert(!std::is_base_of_v<InternalError, PreconditionError>);

TEST(Error, RequireWithLiteralNamesTheCallSite) {
  const int line = __LINE__ + 2;
  const auto what = what_of<PreconditionError>(
      [] { require(false, "need p >= 1"); });
  EXPECT_EQ(what, located(line, "need p >= 1"));
}

TEST(Error, RequireWithStringNamesTheCallSite) {
  const std::string message = "p = " + std::to_string(12) + " is no square";
  const int line = __LINE__ + 2;
  const auto what = what_of<PreconditionError>(
      [&] { require(false, message); });
  EXPECT_EQ(what, located(line, message));
}

TEST(Error, EnsureWithLiteralNamesTheCallSite) {
  const int line = __LINE__ + 2;
  const auto what = what_of<InternalError>(
      [] { ensure(false, "route did not terminate"); });
  EXPECT_EQ(what, located(line, "route did not terminate"));
}

TEST(Error, EnsureWithStringNamesTheCallSite) {
  const std::string message = "lost after " + std::to_string(3) + " retries";
  const int line = __LINE__ + 1;
  const auto what = what_of<InternalError>([&] { ensure(false, message); });
  EXPECT_EQ(what, located(line, message));
}

TEST(Error, EmptyMessageKeepsTheLocationPrefix) {
  const int line = __LINE__ + 1;
  const auto what = what_of<PreconditionError>([] { require(false, ""); });
  EXPECT_EQ(what, located(line, ""));
}

}  // namespace
}  // namespace hpmm
