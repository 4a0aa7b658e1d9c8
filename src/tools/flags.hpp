#pragma once

#include <cstddef>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "util/cli.hpp"

namespace hpmm::tools {

enum class FlagType { kInt, kNumber, kBool, kText };

constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/// One declared command-line flag: the single place that says how it
/// parses, which values it admits, what it defaults to and how --help
/// describes it.
struct Flag {
  std::string name;  ///< without the leading "--"
  FlagType type = FlagType::kText;
  std::string fallback;  ///< the default as typed; "" = none
  std::string help;
  std::string choices;  ///< kText: the admitted values "a|b|c"; "" = any
  std::string metavar;  ///< kText without choices: the value in --help
  double min = -kUnbounded;  ///< kInt, kNumber
  double max = kUnbounded;
};

inline Flag int_flag(std::string name, std::string fallback, std::string help,
                     double min = -kUnbounded, double max = kUnbounded) {
  return {name, FlagType::kInt, fallback, help, "", "", min, max};
}
inline Flag num_flag(std::string name, std::string fallback, std::string help,
                     double min = -kUnbounded, double max = kUnbounded) {
  return {name, FlagType::kNumber, fallback, help, "", "", min, max};
}
inline Flag bool_flag(std::string name, std::string fallback,
                      std::string help) {
  return {name, FlagType::kBool, fallback, help, "", ""};
}
inline Flag text_flag(std::string name, std::string fallback, std::string help,
                      std::string metavar = "TEXT") {
  return {name, FlagType::kText, fallback, help, "", metavar};
}
inline Flag choice_flag(std::string name, std::string fallback,
                        std::string choices, std::string help) {
  return {name, FlagType::kText, fallback, help, choices, ""};
}

using FlagTable = std::vector<Flag>;

/// The concatenation of `parts`: a command's own flags plus the shared
/// groups it takes.
FlagTable join(std::initializer_list<FlagTable> parts);

/// Throws PreconditionError naming the first flag in `args` that `table`
/// does not declare.
void reject_undeclared(const CliArgs& args, const FlagTable& table,
                       const std::string& command);

/// One line per flag: value syntax, help, range and default.
void print_flag_help(const FlagTable& table, std::ostream& os);

/// Arguments read through a flag table. Construction checks every declared
/// flag that was given: it must parse as its type (numbers finite) and lie
/// in its range or choices, or PreconditionError names it. An absent flag
/// reads as its default; reading a flag the table does not declare with
/// that type, or an absent one without a default, is an InternalError.
class Flags {
 public:
  Flags(const CliArgs& args, const FlagTable& table);

  /// Given on the command line (not merely defaulted).
  bool has(const std::string& name) const { return args_.has(name); }

  /// An integer flag; its range must exclude negatives.
  std::size_t size(const std::string& name) const;
  double number(const std::string& name) const;
  bool boolean(const std::string& name) const;
  std::string text(const std::string& name) const;

 private:
  /// The declared default of a flag of `type` that was not given.
  const std::string& fallback(const std::string& name, FlagType type) const;

  const CliArgs& args_;
  const FlagTable& table_;
};

}  // namespace hpmm::tools
