// The four workloads of the end-to-end benchmark. Each is a pure function of
// the seed; why each exists is recorded in README.md and BENCHMARK.json.

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <tuple>

#include "core/registry.hpp"
#include "core/selector.hpp"
#include "e2e.hpp"
#include "serve/chaos.hpp"
#include "serve/script.hpp"
#include "sim/fault.hpp"
#include "util/rng.hpp"

namespace e2e {
namespace {

using hpmm::MachineParams;
using hpmm::Rng;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed ^ (salt * 0x9E3779B97F4A7C15ULL)).next_u64();
}

SimOp sim_op(const std::string& algo, std::size_t n, std::size_t p,
             const MachineParams& params, std::uint64_t seed,
             std::uint64_t salt) {
  SimOp op;
  op.label = algo + " n=" + std::to_string(n) + " p=" + std::to_string(p);
  op.algo = algo;
  op.n = n;
  op.p = p;
  op.params = params;
  op.a = std::make_shared<const Matrix>(integer_operand(n, mix(seed, 2 * salt)));
  op.b = std::make_shared<const Matrix>(
      integer_operand(n, mix(seed, 2 * salt + 1)));
  return op;
}

/// The faulty twin of `clean`: same operands, run under a seeded plan.
SimOp faulty_twin(const SimOp& clean, std::uint64_t plan_seed) {
  SimOp op = clean;
  op.label += " faulty";
  op.faulty = true;
  op.params.faults = inject_plan(plan_seed, true);
  return op;
}

void finish_sim(Workload& w) {
  for (const SimOp& op : w.ops) w.p_max = std::max(w.p_max, op.p);
}

Workload fig1_sim(std::uint64_t seed) {
  Workload w;
  w.params = hpmm::machines::ncube2();
  w.params.metrics_mode = hpmm::MetricsMode::kAggregate;
  w.params.traffic_capture = hpmm::TrafficCapture::kOff;
  const std::size_t p = std::size_t{1} << 18;
  std::uint64_t salt = 0;
  for (std::size_t n : {64, 128, 256}) {
    w.ops.push_back(sim_op("gk", n, p, w.params, seed, salt++));
  }
  w.ops.push_back(sim_op("dns", 64, p, w.params, seed, salt++));
  // Full capture of a p = 2^18 run needs about 0.7 GB, so the capture,
  // fault and thread probes replay the same p = n^3 grain one size down.
  w.probes.push_back(
      sim_op("gk", 32, std::size_t{1} << 15, w.params, seed, salt++));
  w.block = 256 / 64;  // GK n = 256 at p^(1/3) = 64
  finish_sim(w);
  return w;
}

Workload profile_full(std::uint64_t seed) {
  Workload w;
  w.params = hpmm::machines::ncube2();
  w.params.metrics_mode = hpmm::MetricsMode::kFull;
  w.params.traffic_capture = hpmm::TrafficCapture::kOn;
  w.params.trace = true;
  w.params.causal = true;
  w.ops.push_back(sim_op("cannon", 256, 4096, w.params, seed, 0));
  w.ops.push_back(sim_op("gk", 32, std::size_t{1} << 15, w.params, seed, 1));
  w.ops.push_back(sim_op("dns", 32, std::size_t{1} << 15, w.params, seed, 2));
  w.probes = w.ops;
  w.block = 256 / 64;  // Cannon n = 256 at sqrt(p) = 64
  finish_sim(w);
  return w;
}

Workload inject_packed(std::uint64_t seed) {
  Workload w;
  w.params = hpmm::machines::ncube2();
  w.params.exec = hpmm::ExecPolicy{hpmm::Kernel::kPacked, 2};
  w.ops.push_back(sim_op("cannon", 1024, 16, w.params, seed, 0));
  w.ops.push_back(sim_op("gk", 512, 64, w.params, seed, 1));
  w.probes = w.ops;
  for (std::size_t i = 0; i < 2; ++i) {
    w.ops.push_back(faulty_twin(w.ops[i], mix(seed, 100 + i)));
  }
  w.block = 1024 / 4;  // Cannon n = 1024 at sqrt(p) = 4
  finish_sim(w);
  return w;
}

/// A plan-cache key of the serve stream: formulation ("" = selector), shape
/// and machine preset.
struct ServeKey {
  std::string algo;
  std::size_t n = 0, p = 0;
  std::string machine;
  std::string resolved;  ///< formulation the plan runs
};

/// Every applicable key, in a fixed rank order for the Zipf draw. The order
/// is shuffled once with a constant seed, never with the workload seed, so
/// every seed sees the same popularity profile and the same expected work.
std::vector<ServeKey> serve_keys() {
  const hpmm::AlgorithmRegistry& reg = hpmm::default_registry();
  std::vector<std::string> algos = reg.names();
  algos.insert(algos.begin(), "");
  std::vector<ServeKey> keys;
  for (const char* machine : {"ncube2", "future", "cm5"}) {
    const MachineParams mp = hpmm::serve_machine_params(machine);
    for (std::size_t n : {16, 32, 48, 64}) {
      for (std::size_t p : {4, 8, 16, 64}) {
        for (const std::string& algo : algos) {
          ServeKey k{algo, n, p, machine, algo};
          if (algo.empty()) {
            const hpmm::Selection sel = hpmm::select_algorithm(n, p, mp, true);
            if (sel.best.empty()) continue;
            k.resolved = sel.best;
          } else if (!reg.implementation(algo).applicable(n, p)) {
            continue;
          }
          keys.push_back(std::move(k));
        }
      }
    }
  }
  Rng order(0x5EEDC0DEULL);
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[order.next_below(i)]);
  }
  return keys;
}

/// Ten thousand requests from eight tenants. The plan keys are Zipf-drawn;
/// the load, fault share and noisy co-tenant are the serve defaults named
/// below, not settings tuned to this benchmark.
Workload serve_zipf(std::uint64_t seed) {
  constexpr std::size_t kRequests = 10000;
  constexpr std::size_t kTenants = 8;  // t0 .. t6 and "noisy"
  constexpr double kZipfS = 1.1;
  // The load is hpmm serve's generated-workload mean gap; the fault share is
  // bench/serve_load's, with generate_workload's corruption plan.
  const hpmm::WorkloadOptions generated;
  const double mean_gap = generated.mean_gap;
  constexpr double kFaultShare = 0.15;
  constexpr double kCorrectableCorrupt = 0.05;
  // hpmm serve --scenario=noisy-neighbor's co-tenant (Cannon n = p = 16):
  // detect-only ABFT, so each detected corruption fails the attempt, which
  // is retried and can trip the tenant's breaker.
  const hpmm::NoisyNeighborOptions noisy;

  Workload w;
  w.serve.threads = 2;
  w.serve.seed = seed;
  w.params = hpmm::machines::ncube2();

  const std::vector<ServeKey> keys = serve_keys();
  std::vector<double> cdf(keys.size());
  double total = 0.0;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
    cdf[k] = total;
  }

  Rng rng(mix(seed, 0x5E47E));
  double arrival = 0.0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    hpmm::TenantRequest req;
    req.id = i;
    arrival += -mean_gap * std::log(1.0 - rng.next_double());
    req.arrival = arrival;
    const std::size_t tenant = rng.next_below(kTenants);
    if (tenant + 1 == kTenants) {
      req.tenant = "noisy";
      req.algo = "cannon";
      req.n = 16;
      req.p = 16;
      req.machine = noisy.machine;
      auto plan = std::make_shared<hpmm::FaultPlan>();
      plan->corrupt_prob = noisy.corrupt_prob;
      plan->abft = hpmm::AbftMode::kDetect;
      plan->seed = rng.next_u64();
      req.faults = std::move(plan);
      w.stream.push_back(std::move(req));
      continue;
    }
    const double u = rng.next_double() * total;
    const std::size_t k = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const ServeKey& key = keys[std::min(k, keys.size() - 1)];
    req.tenant = "t" + std::to_string(tenant);
    req.algo = key.algo;
    req.n = key.n;
    req.p = key.p;
    req.machine = key.machine;
    // Only Cannon and GK carry ABFT checksums; elsewhere a corruption would
    // go unseen and the product would be wrong.
    const bool abft = key.algo == "cannon" || key.algo == "gk";
    if (rng.next_double() < kFaultShare && abft) {
      auto plan = std::make_shared<hpmm::FaultPlan>();
      plan->corrupt_prob = kCorrectableCorrupt;
      plan->abft = hpmm::AbftMode::kCorrect;
      plan->seed = rng.next_u64();
      req.faults = std::move(plan);
    }
    w.stream.push_back(std::move(req));
  }

  // Probes replay each distinct plan the stream runs once, clean.
  std::set<std::tuple<std::string, std::size_t, std::size_t, std::string>> seen;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const ServeKey& key = keys[k];
    if (!seen.emplace(key.resolved, key.n, key.p, key.machine).second) continue;
    w.probes.push_back(sim_op(key.resolved, key.n, key.p,
                              hpmm::serve_machine_params(key.machine), seed,
                              1000 + k));
    w.p_max = std::max(w.p_max, key.p);
  }
  w.block = 64 / 2;  // Cannon n = 64 at sqrt(p) = 2, the stream's largest
  return w;
}

}  // namespace

std::shared_ptr<const hpmm::FaultPlan> inject_plan(std::uint64_t seed,
                                                   bool abft) {
  auto plan = std::make_shared<hpmm::FaultPlan>();
  plan->seed = seed;
  plan->drop_prob = 0.02;
  if (abft) {
    plan->corrupt_prob = 0.01;
    plan->abft = hpmm::AbftMode::kCorrect;
  }
  return plan;
}

std::vector<std::string> workload_names() {
  return {"fig1-sim-p2e18", "profile-full", "inject-packed-coarse",
          "serve-zipf-10k"};
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fig1-sim-p2e18") return fig1_sim(seed);
  if (name == "profile-full") return profile_full(seed);
  if (name == "inject-packed-coarse") return inject_packed(seed);
  if (name == "serve-zipf-10k") return serve_zipf(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Matrix integer_operand(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, n);
  for (double& x : m.data()) x = static_cast<double>(1 + rng.next_below(8));
  return m;
}

Matrix reference_product(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* crow = c.row_ptr(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      const double* brow = b.row_ptr(k);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

}  // namespace e2e
