#include "util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"

namespace hpmm {

CliArgs::CliArgs(int argc, const char* const* argv) {
  require(argc >= 1, "CliArgs: argc must be >= 1");
  program_ = argv[0];
  bool flags_done = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!flags_done && arg == "--") {
      // Conventional end-of-flags marker: everything after it is positional.
      flags_done = true;
      continue;
    }
    if (!flags_done && arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      std::string key =
          eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
      require(!key.empty(), "CliArgs: empty flag name in '" + arg + "'");
      values_[std::move(key)] =
          eq == std::string::npos ? "true" : arg.substr(eq + 1);
    } else {
      positionals_.push_back(std::move(arg));
    }
  }
}

bool CliArgs::has(const std::string& key) const { return values_.count(key) > 0; }

std::vector<std::string> CliArgs::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

std::string CliArgs::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  // The whole token must parse: strtoll stopping early (garbage, trailing
  // junk, empty string) must fail loudly, not silently produce 0.
  require(!text.empty() && end == text.c_str() + text.size(),
          "--" + key + ": expected an integer, got '" + text + "'");
  require(errno != ERANGE,
          "--" + key + ": integer out of range: '" + text + "'");
  return value;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  require(!text.empty() && end == text.c_str() + text.size(),
          "--" + key + ": expected a number, got '" + text + "'");
  // Overflow to +-inf is an error; gradual underflow to 0/denormal is fine.
  require(errno != ERANGE || std::abs(value) != HUGE_VAL,
          "--" + key + ": number out of range: '" + text + "'");
  return value;
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  throw PreconditionError("--" + key + ": expected true/false, 1/0 or yes/no, "
                          "got '" + text + "'");
}

}  // namespace hpmm
