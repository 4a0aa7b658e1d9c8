// Algorithm explorer — the paper's "smart preprocessor" (Section 10) as a
// command-line tool: given a matrix order, processor count and machine
// parameters, rank every formulation, pick the best, and (optionally) run
// the winner end-to-end on the simulator.
//
//   ./algorithm_explorer --n=96 --p=512 --machine=cm5
//   ./algorithm_explorer --n=512 --p=64 --ts=10 --tw=3 --simulate=true

#include <iostream>

#include "core/selector.hpp"
#include "core/validate.hpp"
#include "matrix/generate.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hpmm;

namespace {

MachineParams machine_from_args(const CliArgs& args) {
  if (args.has("machine")) return machines::preset(args.get("machine", ""));
  MachineParams mp;
  mp.t_s = args.get_double("ts", 150.0);
  mp.t_w = args.get_double("tw", 3.0);
  mp.label = "custom (t_s=" + format_number(mp.t_s) +
             ", t_w=" + format_number(mp.t_w) + ")";
  return mp;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("n", 96));
  const auto p = static_cast<std::size_t>(args.get_int("p", 64));
  const bool simulate = args.get_bool("simulate", true);
  const MachineParams mp = machine_from_args(args);

  std::cout << "Algorithm explorer: n = " << n << ", p = " << p << ", "
            << mp.label << "\n\n";

  const Selection sel = select_algorithm(n, p, mp, /*require_simulatable=*/true);
  Table t({"algorithm", "applicable", "predicted T_p", "predicted E"});
  for (const auto& c : sel.candidates) {
    t.begin_row().add(c.name);
    if (c.applicable) {
      t.add("yes").add_num(c.t_parallel, 5).add_num(c.efficiency, 3);
    } else {
      t.add("no").add("-").add("-");
    }
  }
  t.print_aligned(std::cout);

  if (sel.best.empty()) {
    std::cout << "\nNo formulation can multiply " << n << "x" << n
              << " matrices on " << p << " processors (check p <= n^3 and the\n"
              << "divisibility constraints: sqrt(p) | n for the mesh\n"
              << "algorithms, p^(1/3) | n for GK, p = 2^(3q), ...).\n";
    return 1;
  }

  std::cout << "\nBest choice: " << sel.best << " (predicted T_p = "
            << format_number(sel.t_parallel, 5)
            << ", E = " << format_number(sel.efficiency, 3) << ")\n";

  if (simulate) {
    const auto& reg = default_registry();
    const auto model = reg.model(sel.best, mp);
    const auto pt = validate_algorithm(reg.implementation(sel.best), *model, n, p);
    std::cout << "\nEnd-to-end simulation of " << sel.best << ":\n"
              << "  simulated T_p = " << format_number(pt.sim_t_parallel, 6)
              << " (model " << format_number(pt.model_t_parallel, 6)
              << ", ratio " << format_number(pt.ratio(), 4) << ")\n"
              << "  product vs serial: max error = "
              << format_number(pt.max_numeric_error, 2)
              << (pt.product_correct ? " (verified)" : " (MISMATCH)") << "\n";
  }
  return 0;
}
