#include "tools/flags.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/table.hpp"

namespace hpmm::tools {
namespace {

/// "" when unbounded, else ">= 1", "<= 9" or "in [0, 1]".
std::string range_text(const Flag& f) {
  const bool lo = std::isfinite(f.min);
  const bool hi = std::isfinite(f.max);
  const std::string min = format_number(f.min, 6);
  const std::string max = format_number(f.max, 6);
  if (lo && hi) return "in [" + min + ", " + max + "]";
  return lo ? ">= " + min : hi ? "<= " + max : "";
}

/// Parse and range-check one given flag; throws naming it.
void check_value(const CliArgs& args, const Flag& f) {
  const std::string text = args.get(f.name, "");
  double v = 0.0;
  switch (f.type) {
    case FlagType::kBool:
      (void)args.get_bool(f.name, false);
      return;
    case FlagType::kText:
      require(f.choices.empty() ||
                  (text.find('|') == std::string::npos &&
                   ("|" + f.choices + "|").find("|" + text + "|") !=
                       std::string::npos),
              "--" + f.name + ": unknown " + f.name + " '" + text +
                  "' (expected " + f.choices + ")");
      return;
    case FlagType::kInt:
      v = static_cast<double>(args.get_int(f.name, 0));
      break;
    case FlagType::kNumber:
      v = args.get_double(f.name, 0.0);
      require(std::isfinite(v),
              "--" + f.name + ": must be finite, got '" + text + "'");
      break;
  }
  require(v >= f.min && v <= f.max,
          "--" + f.name + ": must be " + range_text(f) + ", got " + text);
}

}  // namespace

FlagTable join(std::initializer_list<FlagTable> parts) {
  FlagTable out;
  for (const FlagTable& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

void reject_undeclared(const CliArgs& args, const FlagTable& table,
                       const std::string& command) {
  for (const std::string& key : args.keys()) {
    bool declared = false;
    for (const Flag& f : table) declared = declared || f.name == key;
    require(declared, command + ": unknown flag --" + key + " (hpmm " +
                          command + " --help lists its flags)");
  }
}

void print_flag_help(const FlagTable& table, std::ostream& os) {
  constexpr std::size_t kColumn = 28;
  for (const Flag& f : table) {
    const char* value[] = {"N", "X", "0|1", ""};
    std::string syntax = "  --" + f.name + "=" + value[int(f.type)];
    if (f.type == FlagType::kText) {
      syntax += f.choices.empty() ? f.metavar : f.choices;
    }
    const bool wraps = syntax.size() + 2 > kColumn;
    os << syntax << (wraps ? "\n" : "")
       << std::string(wraps ? kColumn : kColumn - syntax.size(), ' ');
    std::string notes = range_text(f);
    if (!f.fallback.empty()) {
      notes += (notes.empty() ? "default " : ", default ") + f.fallback;
    }
    os << f.help << (notes.empty() ? "" : " (" + notes + ")") << "\n";
  }
}

Flags::Flags(const CliArgs& args, const FlagTable& table)
    : args_(args), table_(table) {
  for (const Flag& f : table_) {
    if (args_.has(f.name)) check_value(args_, f);
  }
}

const std::string& Flags::fallback(const std::string& name,
                                   FlagType type) const {
  for (const Flag& f : table_) {
    if (f.name == name && f.type == type) return f.fallback;
  }
  throw InternalError("flag --" + name + " is not declared with that type");
}

std::size_t Flags::size(const std::string& name) const {
  const std::string& def = fallback(name, FlagType::kInt);
  ensure(has(name) || !def.empty(), "flag --" + name + " has no default");
  const std::int64_t v = has(name) ? args_.get_int(name, 0) : std::stoll(def);
  ensure(v >= 0, "flag --" + name + " read as a size but admits negatives");
  return static_cast<std::size_t>(v);
}

double Flags::number(const std::string& name) const {
  const std::string& def = fallback(name, FlagType::kNumber);
  if (has(name)) return args_.get_double(name, 0.0);
  ensure(!def.empty(), "flag --" + name + " has no default");
  return std::stod(def);
}

bool Flags::boolean(const std::string& name) const {
  return args_.get_bool(name, fallback(name, FlagType::kBool) == "1");
}

std::string Flags::text(const std::string& name) const {
  return args_.get(name, fallback(name, FlagType::kText));
}

}  // namespace hpmm::tools
