#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace hpmm {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> v(args);
  return CliArgs(static_cast<int>(v.size()), v.data());
}

TEST(Cli, ParsesKeyValues) {
  const auto args = make({"prog", "--n=128", "--machine=cm5"});
  EXPECT_EQ(args.get_int("n", 0), 128);
  EXPECT_EQ(args.get("machine", ""), "cm5");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, FlagWithoutValueIsTrue) {
  const auto args = make({"prog", "--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(Cli, FallbacksUsedWhenAbsent) {
  const auto args = make({"prog"});
  EXPECT_EQ(args.get_int("n", 64), 64);
  EXPECT_DOUBLE_EQ(args.get_double("ts", 150.0), 150.0);
  EXPECT_FALSE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get("machine", "ncube2"), "ncube2");
}

TEST(Cli, Positionals) {
  const auto args = make({"prog", "run", "--x=1", "fast"});
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "run");
  EXPECT_EQ(args.positionals()[1], "fast");
}

TEST(Cli, DoubleParsing) {
  const auto args = make({"prog", "--tw=3.5"});
  EXPECT_DOUBLE_EQ(args.get_double("tw", 0.0), 3.5);
}

TEST(Cli, BoolVariants) {
  EXPECT_TRUE(make({"p", "--a=yes"}).get_bool("a", false));
  EXPECT_TRUE(make({"p", "--a=1"}).get_bool("a", false));
  EXPECT_FALSE(make({"p", "--a=no"}).get_bool("a", true));
  EXPECT_FALSE(make({"p", "--a=0"}).get_bool("a", true));
  EXPECT_FALSE(make({"p", "--a=false"}).get_bool("a", true));
  EXPECT_TRUE(make({"p", "--a=true"}).get_bool("a", false));
}

// --measured=ture used to read as false and silently skip the measurement.
TEST(Cli, BoolRejectsAnythingElseNamingTheFlag) {
  for (const char* bad : {"--measured=ture", "--measured=", "--measured=2",
                          "--measured=TRUE", "--measured=on"}) {
    try {
      make({"p", bad}).get_bool("measured", false);
      FAIL() << bad;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("--measured"), std::string::npos);
    }
  }
}

// --p=abc used to silently parse as 0 (strtoll with a null end pointer);
// any token that does not fully parse must throw, naming the flag.
TEST(Cli, IntRejectsGarbage) {
  const auto args = make({"prog", "--p=abc"});
  try {
    args.get_int("p", 0);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("--p"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos);
  }
}

TEST(Cli, IntRejectsTrailingJunk) {
  EXPECT_THROW(make({"prog", "--n=12junk"}).get_int("n", 0), PreconditionError);
  EXPECT_THROW(make({"prog", "--n=1.5"}).get_int("n", 0), PreconditionError);
  EXPECT_THROW(make({"prog", "--n=12 "}).get_int("n", 0), PreconditionError);
}

TEST(Cli, IntRejectsEmptyValue) {
  EXPECT_THROW(make({"prog", "--n="}).get_int("n", 7), PreconditionError);
}

TEST(Cli, IntRejectsOverflow) {
  const auto args = make({"prog", "--n=99999999999999999999999"});
  EXPECT_THROW(args.get_int("n", 0), PreconditionError);
}

TEST(Cli, IntAcceptsSignsAndWholeTokens) {
  EXPECT_EQ(make({"prog", "--n=-12"}).get_int("n", 0), -12);
  EXPECT_EQ(make({"prog", "--n=+12"}).get_int("n", 0), 12);
}

TEST(Cli, DoubleRejectsGarbage) {
  const auto args = make({"prog", "--tw=fast"});
  try {
    args.get_double("tw", 0.0);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("--tw"), std::string::npos);
  }
  EXPECT_THROW(make({"prog", "--tw=3.5x"}).get_double("tw", 0.0),
               PreconditionError);
  EXPECT_THROW(make({"prog", "--tw="}).get_double("tw", 0.0),
               PreconditionError);
}

TEST(Cli, DoubleRejectsOverflow) {
  EXPECT_THROW(make({"prog", "--tw=1e999"}).get_double("tw", 0.0),
               PreconditionError);
}

TEST(Cli, DoubleAcceptsScientificAndUnderflow) {
  EXPECT_DOUBLE_EQ(make({"prog", "--tw=2.5e-3"}).get_double("tw", 0.0), 2.5e-3);
  // Gradual underflow is representable, not an error.
  EXPECT_NO_THROW(make({"prog", "--tw=1e-400"}).get_double("tw", 0.0));
}

// A bare `--` used to register as an empty-string flag; it is the
// conventional end-of-flags marker, and everything after it is positional.
TEST(Cli, BareDashDashEndsFlags) {
  const auto args = make({"prog", "--n=4", "--", "--not-a-flag", "file"});
  EXPECT_EQ(args.get_int("n", 0), 4);
  EXPECT_FALSE(args.has("not-a-flag"));
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "--not-a-flag");
  EXPECT_EQ(args.positionals()[1], "file");
}

TEST(Cli, EmptyFlagNameRejected) {
  EXPECT_THROW(make({"prog", "--=value"}), PreconditionError);
}

}  // namespace
}  // namespace hpmm
