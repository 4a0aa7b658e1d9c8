#include "core/registry.hpp"

#include "algorithms/berntsen.hpp"
#include "algorithms/cannon.hpp"
#include "algorithms/cannon_25d.hpp"
#include "algorithms/dns.hpp"
#include "algorithms/fox.hpp"
#include "algorithms/gk.hpp"
#include "algorithms/simple_2d.hpp"
#include "util/error.hpp"

namespace hpmm {

namespace {

template <class Model>
std::unique_ptr<PerfModel> make_model(const MachineParams& params) {
  return std::make_unique<Model>(params);
}

}  // namespace

struct AlgorithmRegistry::Entry {
  std::string name;
  std::unique_ptr<ParallelMatmul> impl;
  std::unique_ptr<PerfModel> (*make_model)(const MachineParams&);
};

AlgorithmRegistry::AlgorithmRegistry() {
  // Selectable entries are the one-port hypercube formulations
  // select_algorithm ranks. The all-port and fully-connected variants
  // assume different hardware; simple-ring and the cannon-gray and fox-pipe
  // embeddings are run by name only.
  const auto add = [this](std::unique_ptr<ParallelMatmul> impl,
                          std::unique_ptr<PerfModel> (*make)(
                              const MachineParams&),
                          bool selectable) {
    std::string name = impl->name();
    if (selectable) selectable_.push_back(name);
    entries_.push_back({std::move(name), std::move(impl), make});
  };
  add(std::make_unique<SimpleAlgorithm>(), make_model<SimpleModel>, true);
  // The ring-all-to-all variant of the simple algorithm on a plain mesh;
  // its model is exact for the simulation.
  add(std::make_unique<SimpleAlgorithm>(SimpleAlgorithm::Variant::kOnePortRing),
      make_model<SimpleRingModel>, false);
  add(std::make_unique<CannonAlgorithm>(), make_model<CannonModel>, true);
  // Gray-code hypercube embedding of Cannon's mesh: identical cost (Eq. 3),
  // demonstrating Section 4.4's mesh == hypercube observation.
  add(std::make_unique<CannonAlgorithm>(CannonAlgorithm::Mapping::kHypercubeGray),
      make_model<CannonModel>, false);
  // 2.5D memory-replicated Cannon at the default replication c = 2; other
  // replication factors are reachable via the CLI's --c or by constructing
  // Cannon25DAlgorithm/Cannon25DModel directly.
  add(std::make_unique<Cannon25DAlgorithm>(), make_model<Cannon25DModel>, true);
  add(std::make_unique<FoxAlgorithm>(), make_model<FoxModel>, true);
  // Eq. 4's packet-pipelined row broadcast.
  add(std::make_unique<FoxAlgorithm>(FoxAlgorithm::Variant::kPipelinedRing),
      make_model<FoxModel>, false);
  add(std::make_unique<BerntsenAlgorithm>(), make_model<BerntsenModel>, true);
  add(std::make_unique<DnsAlgorithm>(), make_model<DnsModel>, true);
  add(std::make_unique<GkAlgorithm>(), make_model<GkModel>, true);
  add(std::make_unique<GkAlgorithm>(GkAlgorithm::Broadcast::kJohnssonHo),
      make_model<GkJohnssonHoModel>, true);
  add(std::make_unique<GkAlgorithm>(GkAlgorithm::Broadcast::kBinomial,
                                    GkAlgorithm::Interconnect::kFullyConnected),
      make_model<GkCm5Model>, false);
  add(std::make_unique<SimpleAlgorithm>(SimpleAlgorithm::Variant::kAllPort),
      make_model<SimpleAllPortModel>, false);
  add(std::make_unique<GkAlgorithm>(GkAlgorithm::Broadcast::kAllPort),
      make_model<GkAllPortModel>, false);
}

std::vector<std::string> AlgorithmRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.name);
  return out;
}

bool AlgorithmRegistry::contains(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

const AlgorithmRegistry::Entry& AlgorithmRegistry::find(
    const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e;
  }
  throw PreconditionError("AlgorithmRegistry: unknown algorithm '" + name + "'");
}

const ParallelMatmul& AlgorithmRegistry::implementation(
    const std::string& name) const {
  return *find(name).impl;
}

std::unique_ptr<PerfModel> AlgorithmRegistry::model(
    const std::string& name, const MachineParams& params) const {
  return find(name).make_model(params);
}

const AlgorithmRegistry& default_registry() {
  static const AlgorithmRegistry registry;
  return registry;
}

}  // namespace hpmm
