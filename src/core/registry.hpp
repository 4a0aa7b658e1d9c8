#pragma once

#include <memory>
#include <string>
#include <vector>

#include "algorithms/parallel_matmul.hpp"
#include "analysis/perf_model.hpp"

namespace hpmm {

/// Maps algorithm names to their simulatable implementation and analytical
/// model — the "library of algorithms" the paper's conclusion proposes, from
/// which "the best algorithm can be pulled out by a smart preprocessor".
class AlgorithmRegistry {
 public:
  /// Registry of every formulation with both an implementation and a model:
  /// simple, simple-ring, cannon, cannon-gray, cannon25d, fox, fox-pipe,
  /// berntsen, dns, gk, gk-jh, gk-fc, simple-allport, gk-allport.
  AlgorithmRegistry();

  /// Names in paper order.
  std::vector<std::string> names() const;

  /// The formulations select_algorithm ranks, in registry order: the
  /// one-port hypercube ones (simple, cannon, cannon25d, fox, berntsen, dns,
  /// gk, gk-jh).
  const std::vector<std::string>& selectable_names() const noexcept {
    return selectable_;
  }

  bool contains(const std::string& name) const;

  /// The simulatable implementation; throws PreconditionError for unknown
  /// names.
  const ParallelMatmul& implementation(const std::string& name) const;

  /// A fresh analytical model bound to `params`; throws for unknown names.
  std::unique_ptr<PerfModel> model(const std::string& name,
                                   const MachineParams& params) const;

 private:
  struct Entry;
  std::vector<Entry> entries_;
  std::vector<std::string> selectable_;
  const Entry& find(const std::string& name) const;
};

/// Process-wide registry instance.
const AlgorithmRegistry& default_registry();

}  // namespace hpmm
