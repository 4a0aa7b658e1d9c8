// Scalability study — run an isoefficiency analysis for one algorithm: how
// fast must the problem grow to keep your target efficiency as processors
// are added, what exponent does that imply, and where (if anywhere) the
// efficiency becomes unreachable.
//
//   ./scalability_study --algorithm=gk --efficiency=0.8 --ts=150 --tw=3

#include <cmath>
#include <iostream>
#include <vector>

#include "analysis/isoefficiency.hpp"
#include "core/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hpmm;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string name = args.get("algorithm", "gk");
  const double efficiency = args.get_double("efficiency", 0.8);
  MachineParams mp;
  mp.t_s = args.get_double("ts", 150.0);
  mp.t_w = args.get_double("tw", 3.0);

  const auto& reg = default_registry();
  if (!reg.contains(name)) {
    std::cerr << "unknown algorithm '" << name << "'; choose from:";
    for (const auto& n : reg.names()) std::cerr << ' ' << n;
    std::cerr << '\n';
    return 1;
  }
  const auto model = reg.model(name, mp);

  std::cout << "Scalability study: " << name << ", target E = " << efficiency
            << ", t_s = " << mp.t_s << ", t_w = " << mp.t_w << "\n\n";

  Table t({"p", "matrix order n", "problem size W = n^3", "W / p",
           "memory/proc (words)"});
  std::vector<double> ps;
  for (double p = 8; p <= 1e9; p *= 8) ps.push_back(p);
  std::size_t reachable = 0;
  for (double p : ps) {
    const auto n = iso_matrix_order(*model, p, efficiency);
    t.begin_row().add(format_si(p, 3));
    if (n) {
      ++reachable;
      const double w = (*n) * (*n) * (*n);
      t.add_num(*n, 4)
          .add(format_si(w, 3))
          .add(format_si(w / p, 3))
          .add(format_si(model->memory_per_proc(*n, p), 3));
    } else {
      t.add("unreachable").add("-").add("-").add("-");
    }
  }
  t.print_aligned(std::cout);

  const auto fit = fit_isoefficiency_exponent(*model, efficiency, ps);
  if (fit.points >= 2) {
    std::cout << "\nFitted isoefficiency exponent: W ~ p^"
              << format_number(fit.exponent, 3) << " over " << fit.points
              << " points (Table 1 asymptote: p^"
              << format_number(model->isoefficiency_exponent(), 2)
              << " x polylog factors)\n";
  }
  if (reachable < ps.size()) {
    std::cout << "\nSome processor counts cannot reach E = " << efficiency
              << " — a concurrency limit or an efficiency ceiling (e.g. DNS's\n"
              << "1/(1 + 2(t_s + t_w)) cap, Section 5.3).\n";
  }
  std::cout << "\nW/p is the per-processor work: if it must grow with p (as it\n"
               "does for every formulation here), the machine cannot be kept\n"
               "efficient at constant memory per processor forever.\n";
  return 0;
}
