#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hpmm {

/// Minimal `--key=value` / `--flag` command-line parser for the example
/// programs and benchmark harnesses. Unrecognised positional arguments are
/// collected in positionals().
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  /// Every --key given, in sorted order.
  std::vector<std::string> keys() const;

  /// Value of --key=value, or `fallback` if absent.
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  /// true/1/yes or false/0/no (a bare --key reads as true); anything else
  /// throws PreconditionError naming the flag.
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }
  const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace hpmm
