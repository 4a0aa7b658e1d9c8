#include "core/selector.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hpmm {
namespace {

Selection select_from(const std::vector<std::string>& names, std::size_t n,
                      std::size_t p, const MachineParams& params,
                      bool require_simulatable,
                      const AlgorithmRegistry& registry) {
  require(n >= 1 && p >= 1, "select_algorithm: n and p must be positive");
  Selection sel;
  const auto nd = static_cast<double>(n);
  const auto pd = static_cast<double>(p);
  for (const auto& name : names) {
    SelectorCandidate cand;
    cand.name = name;
    const auto model = registry.model(name, params);
    const bool model_ok = model->applicable(nd, pd);
    const bool impl_ok =
        !require_simulatable || registry.implementation(name).applicable(n, p);
    cand.applicable = model_ok && impl_ok;
    if (cand.applicable) {
      cand.t_parallel = model->t_parallel(nd, pd);
      cand.efficiency = model->efficiency(nd, pd);
      if (sel.best.empty() || cand.t_parallel < sel.t_parallel) {
        sel.best = name;
        sel.t_parallel = cand.t_parallel;
        sel.efficiency = cand.efficiency;
      }
    }
    sel.candidates.push_back(std::move(cand));
  }
  return sel;
}

}  // namespace

Selection select_algorithm(std::size_t n, std::size_t p,
                           const MachineParams& params,
                           bool require_simulatable,
                           const AlgorithmRegistry& registry) {
  return select_from(registry.selectable_names(), n, p, params,
                     require_simulatable, registry);
}

Selection select_among_table1(std::size_t n, std::size_t p,
                              const MachineParams& params,
                              bool require_simulatable) {
  std::vector<std::string> names;
  for (const auto& model : table1_models(params)) {
    names.push_back(model->name());
  }
  return select_from(names, n, p, params, require_simulatable,
                     default_registry());
}

DegradedSelection select_degraded(std::size_t n, std::size_t survivors,
                                  const MachineParams& params,
                                  bool require_simulatable,
                                  const AlgorithmRegistry& registry) {
  require(survivors >= 1,
          "select_degraded: no surviving processors to re-plan onto");
  for (std::size_t p = survivors; p >= 1; --p) {
    Selection sel =
        select_algorithm(n, p, params, require_simulatable, registry);
    if (!sel.best.empty()) {
      DegradedSelection deg;
      deg.p = p;
      deg.selection = std::move(sel);
      return deg;
    }
  }
  // p == 1 always admits the simple formulation, so this is unreachable for
  // valid inputs; keep a hard error rather than a silent fallback.
  throw PreconditionError(
      "select_degraded: no formulation applicable on the surviving machine");
}

}  // namespace hpmm
