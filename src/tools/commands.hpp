#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "machine/params.hpp"
#include "tools/flags.hpp"
#include "util/cli.hpp"

namespace hpmm::tools {

/// One `hpmm` subcommand. Its flag table is the command's only declaration
/// of its flags: dispatch() rejects any other flag, Flags applies the
/// ranges and defaults, and `--help` prints the table. docs/cli.md lists
/// the same flags per command, and a test keeps the two equal.
struct Command {
  std::string name;
  std::string summary;  ///< usage line(s)
  FlagTable flags;
  int (*run)(const Flags& flags, std::ostream& os);  ///< exit code
};

/// Every subcommand, in usage order: list, machines, select, run, iso,
/// regions, bounds, crossover, trace, profile, reproduce, inject, serve.
/// docs/cli.md describes each.
const std::vector<Command>& commands();

/// The shared machine group: --machine, --ts, --tw, --kernel, --threads,
/// --metrics, --traffic, --trace-sample, --trace-seed, --causal.
const FlagTable& machine_flags();

/// The shared output group: --format and --out.
const FlagTable& output_flags();

/// Dispatch on args.positionals()[0]. `--help` prints the command's flags
/// and returns 0. An undeclared flag, a value outside its type, range or
/// choices, or any other PreconditionError prints `error: ...` to `err`
/// and returns 1; an InternalError returns 2; an unknown or missing
/// subcommand prints usage and returns 2.
int dispatch(const CliArgs& args, std::ostream& os, std::ostream& err);

/// Resolve the machine group into MachineParams: --machine=<preset> or
/// --ts/--tw (default nCUBE2-like), plus the execution and capture flags.
/// Flags outside the group are ignored.
MachineParams machine_from_args(const CliArgs& args);

}  // namespace hpmm::tools
