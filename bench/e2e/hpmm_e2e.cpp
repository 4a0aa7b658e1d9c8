// hpmm_e2e: one run of one workload of the end-to-end benchmark.
//
//   hpmm_e2e --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//            [--trace-out=<prefix>]
//   hpmm_e2e --workload=<name> --seed=<n> --setup-only=1
//
// Sets the workload up, then repeats passes for --seconds and prints one
// JSON line: the end-to-end metrics (--trace=0) or the per-layer metrics
// (--trace=1), the operations attempted and failed, and the simulated
// outcome of every clean op for bench/e2e/run.py to compare with
// expected.json. --setup-only=1 instead times one cold set-up, from the
// start of the process to the end of the warm-up, and checks the warm-up.
// Timing covers only calls into the library; every check runs outside it.
// bench/e2e/README.md describes the workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "e2e.hpp"
#include "matrix/kernels.hpp"
#include "spans.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace e2e {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

void Checker::fail(std::uint64_t n, const std::string& why) {
  failed_ += n;
  if (reasons_.size() < 8) reasons_.push_back(why);
}

void MetricSink::put(const std::string& name, double value,
                     const std::string& unit) {
  entries_.push_back({name, value, unit});
}

void MetricSink::write_json(std::ostream& os) const {
  os << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    os << (i ? "," : "") << hpmm::json_quote(e.name)
       << ":{\"value\":" << hpmm::json_number(e.value)
       << ",\"unit\":" << hpmm::json_quote(e.unit) << "}";
  }
  os << "}";
}

namespace {

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string report_json(const hpmm::ServeReport& r) {
  std::ostringstream os;
  r.write_json(os);
  return os.str();
}

/// One pass's sums; `wall` is the time inside the library's calls.
struct Pass {
  double wall = 0.0;
  RunTotals runs;           ///< simulation workloads
  double report_json = 0.0;  ///< traced passes: serialising the pass's reports
  std::optional<hpmm::ServeReport> serve;  ///< first traced serve pass
};

/// One ParallelMatmul::run: its result, or the error it threw.
struct OpRun {
  std::optional<hpmm::MatmulResult> result;
  std::string error;
  double wall = 0.0;
};

/// Requests of the serve warm-up: the head of the stream.
constexpr std::size_t kWarmUpRequests = 1000;

class Harness {
 public:
  Harness(std::string name, std::uint64_t seed) : name_(std::move(name)), seed_(seed) {}

  /// Set-up as a one-shot user pays it: builds the inputs, autotunes the
  /// packed kernel where the workload uses it, and runs the warm-up, the
  /// first op of the pass or the head of the serve stream. The warm-up is
  /// checked later by check_set_up(), outside the caller's timing.
  void set_up() {
    w_ = make_workload(name_, seed_);
    if (w_.params.exec.kernel == hpmm::Kernel::kPacked) {
      hpmm::set_packed_tuning(hpmm::autotune_packed());
    }
    if (w_.is_serve()) {
      std::vector<hpmm::TenantRequest> head(w_.stream.begin(),
                                            w_.stream.begin() + kWarmUpRequests);
      warm_serve_ = hpmm::Server(w_.serve).run(std::move(head));
    } else {
      warm_op_ = run_op(w_.ops.front(), nullptr, 0);
    }
  }

  /// Checks the warm-up. With `for_passes`, also computes what the passes
  /// are checked against: every op's reference product, or the serve
  /// stream's threads = 1 report.
  void check_set_up(bool for_passes) {
    if (w_.is_serve()) {
      check_serve(*warm_serve_, kWarmUpRequests);
      warm_serve_.reset();
      if (for_passes) serve_reference();
    } else {
      add_references(for_passes ? w_.ops.size() : 1);
      check_sim(w_.ops.front(), warm_op_.result, warm_op_.error);
      warm_op_ = OpRun{};
    }
  }

  /// One pass: every op of the workload, or the whole serve stream.
  Pass pass(SpanLog* log) {
    Pass p;
    const std::uint64_t id = ++pass_id_;
    ScopedSpan span(log, "bench.pass", id);
    if (w_.is_serve()) {
      serve_pass(p, log, id);
    } else {
      for (SimOp& op : w_.ops) sim_op(op, p, log, id);
    }
    return p;
  }

  const Workload& workload() const noexcept { return w_; }
  Checker& checker() noexcept { return check_; }
  std::uint64_t serve_hash() const noexcept { return serve_hash_; }
  const std::vector<double>& serve_t1_walls() const noexcept { return t1_walls_; }

  /// Times and checks Server::run at threads = 1 on the full stream.
  hpmm::ServeReport serve_single_thread() {
    hpmm::ServeOptions opt = w_.serve;
    opt.threads = 1;
    std::vector<hpmm::TenantRequest> copy = w_.stream;
    const double t0 = now_s();
    hpmm::ServeReport r = hpmm::Server(opt).run(std::move(copy));
    t1_walls_.push_back(now_s() - t0);
    check_serve(r, w_.stream.size());
    return r;
  }

 private:
  /// References of the first `count` ops; faulty twins share their clean
  /// op's.
  void add_references(std::size_t count) {
    std::map<const Matrix*, std::shared_ptr<const Matrix>> done;
    for (std::size_t i = 0; i < count; ++i) {
      SimOp& op = w_.ops[i];
      auto& ref = done[op.a.get()];
      if (!ref) ref = std::make_shared<const Matrix>(reference_product(*op.a, *op.b));
      op.reference = ref;
    }
  }

  /// The reference every serve pass must reproduce byte for byte: the
  /// report of a threads = 1 run.
  void serve_reference() {
    serve_reference_ = report_json(serve_single_thread());
    serve_hash_ = fnv1a64(serve_reference_);
  }

  static OpRun run_op(const SimOp& op, SpanLog* log, std::uint64_t id) {
    const hpmm::ParallelMatmul& impl =
        hpmm::default_registry().implementation(op.algo);
    OpRun run;
    ScopedSpan span(log, "algorithms.run", id);
    const double t0 = now_s();
    try {
      run.result = impl.run(*op.a, *op.b, op.p, op.params);
    } catch (const std::exception& e) {
      run.error = e.what();
    }
    run.wall = now_s() - t0;
    return run;
  }

  void sim_op(SimOp& op, Pass& p, SpanLog* log, std::uint64_t id) {
    const OpRun run = run_op(op, log, id);
    p.wall += run.wall;
    if (run.result) p.runs.add(run.wall, *run.result);
    {
      ScopedSpan span(log, "bench.check", id);
      check_sim(op, run.result, run.error);
    }
    if (log != nullptr && run.result) {
      ScopedSpan span(log, "report.write_json", id);
      std::ostringstream os;
      const double t0 = now_s();
      run.result->report.write_json(os);
      p.report_json += now_s() - t0;
    }
  }

  void check_sim(SimOp& op, const std::optional<hpmm::MatmulResult>& r,
                 const std::string& error) {
    check_.attempt();
    ++op.runs;
    if (!r) {
      check_.fail(1, op.label + ": " + error);
      return;
    }
    if (!(r->c == *op.reference)) {
      check_.fail(1, op.label + ": product differs from the reference");
      return;
    }
    const VirtualResult v{r->report.t_parallel, r->report.total_messages,
                          r->report.total_words};
    if (!op.seen) {
      op.seen = v;
    } else if (!(v == *op.seen)) {
      check_.fail(1, op.label + ": T_p, messages or words changed between runs");
    }
  }

  void serve_pass(Pass& p, SpanLog* log, std::uint64_t id) {
    std::vector<hpmm::TenantRequest> copy = w_.stream;
    std::optional<hpmm::ServeReport> r;
    {
      ScopedSpan span(log, "serve.run", id);
      const double t0 = now_s();
      r = hpmm::Server(w_.serve).run(std::move(copy));
      p.wall = now_s() - t0;
    }
    std::string json;
    {
      ScopedSpan span(log, "report.write_json", id);
      const double t0 = now_s();
      json = report_json(*r);
      p.report_json = now_s() - t0;
    }
    ScopedSpan span(log, "bench.check", id);
    const std::size_t failed = check_serve(*r, w_.stream.size());
    if (json != serve_reference_) {
      check_.fail(w_.stream.size() - failed,
                  "serve report differs from the threads=1 reference");
    }
    if (log != nullptr && !kept_serve_) {
      p.serve = std::move(r);
      kept_serve_ = true;
    }
  }

  /// Counts the requests that ended in an outcome no correct server could
  /// give them; returns how many. Every plan key is valid and applicable
  /// and no deadline is set, so an invalid, infeasible or deadline outcome
  /// is wrong, and so is a failed request that carried no fault plan.
  /// Admission rejections and failures of requests with injected faults are
  /// the envelope at work: the report comparison checks those.
  std::size_t check_serve(const hpmm::ServeReport& r, std::size_t expected) {
    using hpmm::ServeOutcome;
    check_.attempt(expected);
    if (r.requests.size() != expected) {
      check_.fail(expected, "serve report lost requests");
      return expected;
    }
    std::size_t failed = 0;
    for (const hpmm::RequestRecord& rec : r.requests) {
      const ServeOutcome o = rec.outcome;
      const bool wrong = o == ServeOutcome::kRejectedInvalid ||
                         o == ServeOutcome::kRejectedInfeasible ||
                         o == ServeOutcome::kDeadlineExceeded ||
                         (o == ServeOutcome::kFailed && !rec.request.faults);
      if (wrong) {
        ++failed;
        check_.fail(1, "request " + std::to_string(rec.request.id) + " ended " +
                           hpmm::to_string(o) + ": " + rec.detail);
      }
    }
    return failed;
  }

  std::string name_;
  std::uint64_t seed_;
  Workload w_;
  OpRun warm_op_;
  std::optional<hpmm::ServeReport> warm_serve_;
  Checker check_;
  std::uint64_t pass_id_ = 0;
  std::string serve_reference_;
  std::uint64_t serve_hash_ = 0;
  std::vector<double> t1_walls_;
  bool kept_serve_ = false;  ///< the first traced serve report is kept
};

std::vector<double> walls(const std::vector<Pass>& ps) {
  std::vector<double> v;
  for (const Pass& p : ps) v.push_back(p.wall);
  return v;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The end-to-end metrics but setup_s, which run.py takes from separate
/// --setup-only processes.
void end_to_end(Harness& h, double seconds, MetricSink& out,
                std::vector<double>& pass_walls) {
  std::vector<Pass> ps;
  const double start = now_s();
  while (ps.size() < 3 || now_s() - start < seconds) ps.push_back(h.pass(nullptr));
  pass_walls = walls(ps);
  out.put("wall_s", median(pass_walls), "s");
  out.put("peak_rss_mib", peak_rss_mib(), "MiB");
}

void per_layer(Harness& h, std::uint64_t seed, double seconds, SpanLog& log,
               MetricSink& out, std::vector<double>& pass_walls) {
  // Untraced and traced passes alternate, so drift on a shared host affects
  // both alike.
  std::vector<Pass> plain, traced;
  hpmm::reset_kernel_wall_profile();
  const double start = now_s();
  while (traced.size() < 2 || now_s() - start < seconds) {
    plain.push_back(h.pass(nullptr));
    hpmm::enable_kernel_wall_profile(true);
    traced.push_back(h.pass(&log));
    hpmm::enable_kernel_wall_profile(false);
  }
  const hpmm::KernelWallProfile kernel = hpmm::kernel_wall_profile();
  pass_walls = walls(traced);
  const Workload& w = h.workload();
  const double traced_wall = median(pass_walls);
  const auto n_traced = static_cast<double>(traced.size());

  out.put("bench.trace_overhead_frac", traced_wall / median(walls(plain)) - 1.0,
          "fraction");

  // The simulation layers of a serve pass run inside Server::run, so they
  // are measured by replaying the pass's ok requests outside it.
  std::vector<double> run_s, outside_s, json_s;
  RunTotals sim;
  if (w.is_serve()) {
    {
      ScopedSpan span(&log, "probe.serve.replay", 0);
      sim = replay_serve(w, *traced.front().serve, log, h.checker());
    }
    run_s.push_back(sim.wall);
    outside_s.push_back(sim.wall - sim.engine_wall);
  } else {
    sim = traced.front().runs;
    for (const Pass& p : traced) {
      run_s.push_back(p.runs.wall);
      outside_s.push_back(p.runs.wall - p.runs.engine_wall);
    }
  }
  for (const Pass& p : traced) json_s.push_back(p.report_json);
  out.put("algorithms.run_s", median(run_s), "s");
  out.put("algorithms.outside_engine_s", median(outside_s), "s");
  out.put("sim.events", static_cast<double>(sim.events), "count");
  out.put("sim.messages", static_cast<double>(sim.messages), "count");
  out.put("sim.words", static_cast<double>(sim.words), "count");
  out.put("sim.ns_per_event",
          1e9 * sim.engine_wall / static_cast<double>(sim.events), "ns");
  out.put("sim.arena_bytes_per_proc", sim.arena_bytes_per_proc, "B");
  out.put("sim.inbox_high_water", static_cast<double>(sim.inbox_high_water),
          "count");
  out.put("matrix.kernel_calls", static_cast<double>(kernel.calls) / n_traced,
          "count");
  // Kernel thread-seconds over the thread-seconds the pass had available.
  out.put("matrix.kernel_share",
          kernel.seconds / n_traced / traced_wall /
              static_cast<double>(w.params.exec.threads),
          "fraction");
  out.put("report.json_s", median(json_s), "s");

  layer_probes(w, seed, log, out);

  double spec = 0.0, hit = 0.0, misses = 0.0, rejected = 0.0, failed = 0.0,
         retries = 0.0, journal = 0.0, vt_p99 = 0.0;
  if (w.is_serve()) {
    {
      ScopedSpan span(&log, "probe.serve.threads1", 0);
      (void)h.serve_single_thread();
      (void)h.serve_single_thread();
    }
    spec = median(h.serve_t1_walls()) / traced_wall;
    const hpmm::ServeReport& r = *traced.front().serve;
    hit = r.cache_hit_rate();
    misses = static_cast<double>(r.cache_misses);
    std::vector<double> latency;
    for (const auto& [tenant, ts] : r.tenants) {
      rejected += static_cast<double>(ts.rejected());
      failed += static_cast<double>(ts.failed);
      retries += static_cast<double>(ts.retries);
    }
    for (const hpmm::RequestRecord& rec : r.requests) {
      if (rec.outcome == hpmm::ServeOutcome::kOk) latency.push_back(rec.latency);
    }
    journal = static_cast<double>(r.journal.size());
    std::sort(latency.begin(), latency.end());
    if (!latency.empty()) {
      vt_p99 = latency[static_cast<std::size_t>(
          0.99 * static_cast<double>(latency.size() - 1))];
    }
  }
  // Zero where the workload has no serve layer.
  out.put("serve.spec_speedup", spec, "x");
  out.put("serve.plan_cache.hit_ratio", hit, "fraction");
  out.put("serve.plan_cache.misses", misses, "count");
  out.put("serve.rejected", rejected, "count");
  out.put("serve.failed", failed, "count");
  out.put("serve.retries", retries, "count");
  out.put("serve.journal.events", journal, "count");
  out.put("serve.vt_p99", vt_p99, "vt");
}

int run(int argc, char** argv, double process_start) {
  const hpmm::CliArgs args(argc, argv);
  const std::string name = args.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_bool("trace", false);
  const bool setup_only = args.get_bool("setup-only", false);
  const std::string trace_out = args.get("trace-out", "");
  bool known = false;
  for (const std::string& n : workload_names()) known = known || n == name;
  if (!known || seconds <= 0.0) {
    std::cerr << "usage: hpmm_e2e --workload=<name> --seed=<n> --seconds=<s> "
                 "--trace=<0|1> [--trace-out=<prefix>]\n"
                 "       hpmm_e2e --workload=<name> --seed=<n> --setup-only=1\n"
                 "workloads:";
    for (const std::string& n : workload_names()) std::cerr << " " << n;
    std::cerr << "\n";
    return 2;
  }

  Harness h(name, seed);
  h.set_up();
  const double setup_s = now_s() - process_start;
  h.check_set_up(!setup_only);

  MetricSink metrics;
  SpanLog log;
  std::vector<double> pass_walls;
  if (setup_only) {
    metrics.put("setup_s", setup_s, "s");
  } else if (trace) {
    per_layer(h, seed, seconds, log, metrics, pass_walls);
  } else {
    end_to_end(h, seconds, metrics, pass_walls);
  }
  if (trace && !trace_out.empty()) {
    std::ofstream chrome(trace_out + ".trace.json");
    log.write_chrome(chrome);
    std::ofstream table(trace_out + ".layers.txt");
    log.write_self_times(table);
    if (!chrome || !table) {
      std::cerr << "hpmm_e2e: cannot write " << trace_out << ".*\n";
      return 2;
    }
  }

  const Checker& check = h.checker();
  std::ostringstream os;
  os << "{\"workload\":" << hpmm::json_quote(name) << ",\"seed\":" << seed
     << ",\"trace\":" << (trace ? 1 : 0) << ",\"attempted\":" << check.attempted()
     << ",\"failed\":" << check.failed() << ",\"reasons\":[";
  for (std::size_t i = 0; i < check.reasons().size(); ++i) {
    os << (i ? "," : "") << hpmm::json_quote(check.reasons()[i]);
  }
  os << "],\"metrics\":";
  metrics.write_json(os);
  const auto write_array = [&os](const std::vector<double>& v) {
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      os << (i ? "," : "") << hpmm::json_number(v[i]);
    }
    os << "]";
  };
  os << ",\"pass_wall_s\":";
  write_array(pass_walls);
  os << ",\"virtual\":{";
  bool first = true;
  for (const SimOp& op : h.workload().ops) {
    if (op.faulty || !op.seen) continue;
    os << (first ? "" : ",") << hpmm::json_quote(op.label)
       << ":{\"t_parallel\":" << hpmm::json_number(op.seen->t_parallel)
       << ",\"messages\":" << op.seen->messages
       << ",\"words\":" << op.seen->words << ",\"runs\":" << op.runs
       << "}";
    first = false;
  }
  os << "}";
  if (h.workload().is_serve()) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h.serve_hash()));
    os << ",\"serve_report_fnv1a64\":\"" << hex << "\"";
  }
  os << "}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const double process_start = e2e::now_s();
  try {
    return e2e::run(argc, argv, process_start);
  } catch (const std::exception& e) {
    std::cerr << "hpmm_e2e: " << e.what() << "\n";
    return 2;
  }
}
