#include "tools/commands.hpp"

#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "algorithms/cannon_25d.hpp"
#include "analysis/bounds.hpp"
#include "analysis/crossover.hpp"
#include "analysis/isoefficiency.hpp"
#include "analysis/region_map.hpp"
#include "core/distance.hpp"
#include "core/experiments.hpp"
#include "core/registry.hpp"
#include "core/runner.hpp"
#include "core/selector.hpp"
#include "core/validate.hpp"
#include "matrix/generate.hpp"
#include "matrix/kernels.hpp"
#include "serve/chaos.hpp"
#include "serve/script.hpp"
#include "serve/server.hpp"
#include "serve/timeline.hpp"
#include "sim/fault.hpp"
#include "util/error.hpp"
#include "util/export.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace hpmm::tools {
namespace {

/// Parse "pid:value[,pid:value...]" (straggler and fail-stop scenario
/// flags). An empty string yields an empty list.
std::vector<std::pair<std::uint32_t, double>> parse_pid_values(
    const std::string& text, const std::string& flag) {
  std::vector<std::pair<std::uint32_t, double>> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    const std::size_t colon = item.find(':');
    require(colon != std::string::npos && colon > 0 && colon + 1 < item.size(),
            flag + ": expected pid:value[,pid:value...], got '" + item + "'");
    try {
      out.emplace_back(
          static_cast<std::uint32_t>(std::stoul(item.substr(0, colon))),
          std::stod(item.substr(colon + 1)));
    } catch (const std::exception&) {
      throw PreconditionError(flag + ": malformed entry '" + item + "'");
    }
    start = comma + 1;
  }
  return out;
}

/// Run `writer` against the file at `path`. The stream state is checked
/// both before writing (open failure) and after write + flush — a full disk
/// or vanished path must surface as a PreconditionError naming --flag, not
/// a silently truncated file.
void write_file(const std::string& command, const std::string& flag,
                const std::string& path,
                const std::function<void(std::ostream&)>& writer) {
  std::ofstream file(path);
  require(file.good(),
          command + ": cannot open --" + flag + " file '" + path + "'");
  writer(file);
  file.flush();
  require(file.good(), command + ": writing --" + flag + " file '" + path +
                           "' failed (disk full or device error?)");
}

/// Run `writer` against --out's file, or against `os` when --out is absent.
void write_output(const Flags& f, std::ostream& os, const std::string& command,
                  const std::string& what,
                  const std::function<void(std::ostream&)>& writer) {
  const std::string out = f.text("out");
  if (out.empty()) {
    writer(os);
    return;
  }
  write_file(command, "out", out, writer);
  os << "wrote " << what << " to " << out << "\n";
}

/// `--metrics-out=FILE[.prom|.json]` final-snapshot writer shared by run
/// and serve; the format is routed on the extension (util/export.hpp).
void write_metrics_out(const Flags& f, std::ostream& os,
                       const std::string& command,
                       const std::function<void(std::ostream&,
                                                MetricsExportFormat)>& writer) {
  const std::string path = f.text("metrics-out");
  if (path.empty()) return;
  const MetricsExportFormat format = metrics_export_format(path);
  write_file(command, "metrics-out", path,
             [&](std::ostream& s) { writer(s, format); });
  os << "wrote metrics to " << path << "\n";
}

void print_table(const Flags& f, const Table& table, std::ostream& os) {
  const std::string format = f.text("format");
  if (format == "csv") {
    table.print_csv(os);
  } else if (format == "json") {
    table.print_json(os);
  } else if (format == "markdown") {
    table.print_markdown(os);
  } else {
    table.print_aligned(os);
  }
}

MachineParams machine_from_flags(const Flags& f) {
  MachineParams mp;
  if (f.has("machine")) {
    mp = machines::preset(f.text("machine"));
  } else if (f.has("ts") || f.has("tw")) {
    mp.t_s = f.number("ts");
    mp.t_w = f.number("tw");
    mp.label = "custom (t_s=" + format_number(mp.t_s) +
               ", t_w=" + format_number(mp.t_w) + ")";
  } else {
    mp = machines::ncube2();
  }
  // Execution policy: wall-clock only, never part of the cost model. Every
  // kernel/threads setting yields bit-identical simulated times and results.
  mp.exec.kernel = kernel_from_string(f.text("kernel"));
  mp.exec.threads = static_cast<unsigned>(f.size("threads"));
  // Capture sparsity for extreme-scale runs (docs/cli.md, DESIGN.md §12).
  // Defaults reproduce the historical full-capture output byte for byte.
  if (f.text("metrics") == "aggregate") {
    mp.metrics_mode = MetricsMode::kAggregate;
  }
  const std::string traffic = f.text("traffic");
  if (traffic == "on") mp.traffic_capture = TrafficCapture::kOn;
  if (traffic == "off") mp.traffic_capture = TrafficCapture::kOff;
  mp.trace_sample = f.number("trace-sample");
  mp.trace_sample_seed = f.size("trace-seed");
  // Causal span DAG capture (docs/observability.md); sampled by the same
  // --trace-sample / --trace-seed gate as the timeline.
  mp.causal = f.boolean("causal");
  return mp;
}

/// Implementation + model pair for one registry name. --c re-instantiates
/// a replicated formulation at that replication factor (the registry entry
/// is fixed at c = 2).
struct AlgorithmChoice {
  const ParallelMatmul* impl = nullptr;
  std::unique_ptr<ParallelMatmul> owned_impl;  // set when impl is bespoke
  std::unique_ptr<PerfModel> model;
};

AlgorithmChoice algorithm_from_flags(const Flags& f,
                                     const std::string& algorithm,
                                     const MachineParams& mp,
                                     const std::string& command) {
  const auto& reg = default_registry();
  require(reg.contains(algorithm),
          command + ": unknown algorithm '" + algorithm + "'");
  AlgorithmChoice choice;
  choice.impl = &reg.implementation(algorithm);
  if (f.has("c") && dynamic_cast<const Cannon25DAlgorithm*>(choice.impl)) {
    const std::size_t c = f.size("c");
    choice.owned_impl = std::make_unique<Cannon25DAlgorithm>(c);
    choice.impl = choice.owned_impl.get();
    choice.model = std::make_unique<Cannon25DModel>(mp, c);
  } else {
    choice.model = reg.model(algorithm, mp);
  }
  return choice;
}

int cmd_list(const Flags& f, std::ostream& os) {
  const auto& reg = default_registry();
  Table t({"algorithm", "range of applicability"});
  for (const auto& name : reg.names()) {
    t.begin_row().add(name).add(reg.implementation(name).applicability());
  }
  print_table(f, t, os);
  return 0;
}

int cmd_machines(const Flags& f, std::ostream& os) {
  Table t({"name", "t_s", "t_w", "description"});
  for (const machines::Preset& preset : machines::presets()) {
    const MachineParams mp = preset.make();
    t.begin_row().add(preset.name).add_num(mp.t_s).add_num(mp.t_w);
    t.add(mp.label);
  }
  print_table(f, t, os);
  return 0;
}

int cmd_select(const Flags& f, std::ostream& os) {
  require(f.has("n") && f.has("p"), "select: --n and --p are required");
  const std::size_t n = f.size("n");
  const std::size_t p = f.size("p");
  const MachineParams mp = machine_from_flags(f);
  const Selection sel = select_algorithm(n, p, mp, f.boolean("simulatable"));
  Table t({"algorithm", "applicable", "predicted T_p", "predicted E"});
  for (const auto& c : sel.candidates) {
    t.begin_row().add(c.name);
    if (c.applicable) {
      t.add("yes").add_num(c.t_parallel, 5).add_num(c.efficiency, 3);
    } else {
      t.add("no").add("-").add("-");
    }
  }
  print_table(f, t, os);
  if (sel.best.empty()) {
    os << "no applicable formulation for n=" << n << ", p=" << p << "\n";
    return 1;
  }
  os << "best: " << sel.best << " (T_p=" << format_number(sel.t_parallel, 5)
     << ", E=" << format_number(sel.efficiency, 3) << ", " << mp.label << ")\n";
  return 0;
}

int cmd_run(const Flags& f, std::ostream& os) {
  const std::string algorithm = f.text("algorithm");
  const std::size_t n = f.size("n");
  const std::size_t p = f.size("p");
  const MachineParams mp = machine_from_flags(f);
  const AlgorithmChoice choice = algorithm_from_flags(f, algorithm, mp, "run");
  const auto pt =
      validate_algorithm(*choice.impl, *choice.model, n, p, f.size("seed"));
  write_metrics_out(f, os, "run",
                    [&pt](std::ostream& s, MetricsExportFormat format) {
                      write_metrics(pt.report.metrics, format, s);
                    });
  if (f.text("format") == "json") {
    // One JSON object: the full simulated RunReport plus the model
    // comparison and product check that `run` adds on top of it.
    write_output(f, os, "run", "run report", [&pt](std::ostream& s) {
      s << "{\"report\":";
      pt.report.write_json(s);
      s << ",\"model_t_parallel\":" << json_number(pt.model_t_parallel)
        << ",\"ratio\":" << json_number(pt.ratio())
        << ",\"max_numeric_error\":" << json_number(pt.max_numeric_error)
        << ",\"product_correct\":" << (pt.product_correct ? "true" : "false")
        << "}\n";
    });
    return pt.product_correct ? 0 : 1;
  }
  os << algorithm << ": n=" << n << " p=" << p << " (" << mp.label << ")\n"
     << "  T_p (simulated) = " << format_number(pt.sim_t_parallel, 6) << "\n"
     << "  T_p (model)     = " << format_number(pt.model_t_parallel, 6)
     << "  (ratio " << format_number(pt.ratio(), 4) << ")\n"
     << "  speedup         = "
     << format_number(std::pow(double(n), 3.0) / pt.sim_t_parallel, 5) << "\n"
     << "  efficiency      = "
     << format_number(std::pow(double(n), 3.0) / pt.sim_t_parallel / double(p), 4)
     << "\n"
     << "  product check   = "
     << (pt.product_correct ? "ok" : "MISMATCH") << " (max error "
     << format_number(pt.max_numeric_error, 2) << ")\n";
  return pt.product_correct ? 0 : 1;
}

int cmd_iso(const Flags& f, std::ostream& os) {
  const double efficiency = f.number("efficiency");
  const MachineParams mp = machine_from_flags(f);
  const auto model =
      algorithm_from_flags(f, f.text("algorithm"), mp, "iso").model;
  Table t({"p", "n needed", "W = n^3", "W/p"});
  std::vector<double> ps;
  for (double p = f.number("pmin"); p <= f.number("pmax"); p *= 8) {
    ps.push_back(p);
    const auto n = iso_matrix_order(*model, p, efficiency);
    t.begin_row().add(format_si(p, 3));
    if (n) {
      const double w = std::pow(*n, 3.0);
      t.add_num(*n, 4).add(format_si(w, 3)).add(format_si(w / p, 3));
    } else {
      t.add("unreachable").add("-").add("-");
    }
  }
  print_table(f, t, os);
  const auto fit = fit_isoefficiency_exponent(*model, efficiency, ps);
  if (fit.points >= 2) {
    os << "fitted: W ~ p^" << format_number(fit.exponent, 3) << " at E = "
       << efficiency << " (" << mp.label << ")\n";
  }
  return 0;
}

int cmd_regions(const Flags& f, std::ostream& os) {
  if (f.has("n") && f.has("p")) {
    // Dual view: fixed workload, sweep the machine's (t_s, t_w) plane.
    require(!f.has("with-bounds"),
            "regions: --with-bounds applies to the (p, n) map, not the "
            "(t_s, t_w) dual view");
    const MachineSpaceMap map(f.number("n"), f.number("p"), f.number("tsmin"),
                              f.number("tsmax"), f.size("tscells"),
                              f.number("twmin"), f.number("twmax"),
                              f.size("twcells"));
    map.print_ascii(os);
    return 0;
  }
  // --with-25d extends the paper's four-way comparison with the 2.5D
  // formulation's replication envelope (region letter 'e'); --with-bounds
  // upper-cases the cells where the winner is communication-optimal.
  const RegionMap map(machine_from_flags(f), f.number("pmin"),
                      f.number("pmax"), f.size("pcells"), f.number("nmin"),
                      f.number("nmax"), f.size("ncells"),
                      f.boolean("with-25d"), f.boolean("with-bounds"));
  map.print_ascii(os);
  return 0;
}

int cmd_bounds(const Flags& f, std::ostream& os) {
  const std::size_t n = f.size("n");
  const std::size_t p = f.size("p");
  const double machine_memory = f.number("memory");
  const bool measured = f.boolean("measured");
  const MachineParams mp = machine_from_flags(f);

  const auto& reg = default_registry();
  std::vector<std::string> names;
  const std::string algo = f.text("algo");
  if (algo == "all") {
    names = reg.names();
  } else {
    require(reg.contains(algo), "bounds: unknown --algo '" + algo +
                                    "' (try one of: hpmm list)");
    names.push_back(algo);
  }

  const double nd = static_cast<double>(n);
  const double pd = static_cast<double>(p);
  std::vector<std::string> headers = {
      "algorithm",     "class",      "M/proc",     "mem-dep/proc",
      "mem-indep/proc", "floor/proc", "msgs/proc",  "total floor",
      "ss p_min",      "ss p_max"};
  if (measured) {
    headers.push_back("measured words");
    headers.push_back("ratio");
  }
  Table t(std::move(headers));
  for (const std::string& name : names) {
    const AlgorithmChoice choice = algorithm_from_flags(f, name, mp, "bounds");
    const BoundsClass cls = choice.model->bounds_class();
    const StrongScalingRange ss =
        strong_scaling_range(cls, nd, machine_memory);
    t.begin_row().add(name).add(to_string(cls));
    if (choice.model->applicable(nd, pd)) {
      const double mem = choice.model->memory_per_proc(nd, pd);
      const CommLowerBound b = comm_lower_bound(nd, pd, mem);
      t.add(format_si(mem, 3))
          .add(format_si(b.words_mem_dependent, 3))
          .add(format_si(b.words_mem_independent, 3))
          .add(format_si(b.words, 3))
          .add(format_si(b.latency, 3))
          .add(format_si(b.total_words, 3));
    } else {
      for (int i = 0; i < 6; ++i) t.add("-");
    }
    t.add(format_si(ss.p_min, 3)).add(format_si(ss.p_max, 3));
    if (measured) {
      if (choice.impl->applicable(n, p)) {
        const DistanceFromOptimal d = distance_from_optimal(
            *choice.impl, *choice.model, n, p, f.size("seed"));
        t.add(format_si(d.measured_total_words, 3));
        t.add(std::isfinite(d.ratio) ? format_number(d.ratio, 4)
                                     : std::string("inf"));
      } else {
        t.add("-").add("-");
      }
    }
  }
  print_table(f, t, os);
  if (f.text("format") != "json") {
    os << "bounds at n=" << n << ", p=" << p
       << "; M/proc = each formulation's own footprint, strong-scaling range "
          "at --memory="
       << format_si(machine_memory, 3) << " words ("
       << to_string(BoundsClass::k2D) << " degenerate at 3n^2/M, "
       << to_string(BoundsClass::k25D) << " up to (3n^2/M)^(3/2), "
       << to_string(BoundsClass::k3D) << " at that endpoint)\n";
  }
  return 0;
}

int cmd_crossover(const Flags& f, std::ostream& os) {
  const std::string a = f.text("a");
  const std::string b = f.text("b");
  const MachineParams mp = machine_from_flags(f);
  const auto model_a = algorithm_from_flags(f, a, mp, "crossover").model;
  const auto model_b = algorithm_from_flags(f, b, mp, "crossover").model;
  Table t({"p", "n_EqualTo(" + a + " vs " + b + ")"});
  for (double p = f.number("pmin"); p <= f.number("pmax"); p *= 8) {
    const auto n = n_equal_overhead(*model_a, *model_b, p);
    t.begin_row().add(format_si(p, 3)).add(
        n ? format_number(*n, 4) : std::string("- (one dominates)"));
  }
  print_table(f, t, os);
  os << "below the curve " << a << " has the smaller overhead; above it " << b
     << " does (" << mp.label << ")\n";
  return 0;
}

int cmd_trace(const Flags& f, std::ostream& os) {
  const std::size_t n = f.size("n");
  const std::size_t p = f.size("p");
  MachineParams mp = machine_from_flags(f);
  mp.trace = true;
  const AlgorithmChoice choice =
      algorithm_from_flags(f, f.text("algorithm"), mp, "trace");
  const ParallelMatmul& impl = *choice.impl;
  impl.check_applicable(n, p);
  Rng rng(f.size("seed"));
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  const MatmulResult result = impl.run(a, b, p, mp);
  if (f.text("format") == "chrome") {
    // Chrome trace-event JSON: load into chrome://tracing or Perfetto.
    const std::string what = "chrome trace (" +
                             std::to_string(result.trace.events().size()) +
                             " events)";
    write_output(f, os, "trace", what, [&result](std::ostream& s) {
      result.trace.write_chrome(s);
    });
    return 0;
  }
  os << result.report.summary() << "\n";
  result.trace.print_gantt(os, f.size("width"), f.size("procs"));
  return 0;
}

int cmd_profile(const Flags& f, std::ostream& os) {
  const std::string algorithm = f.text("algorithm");
  const std::size_t n = f.size("n");
  const std::size_t p = f.size("p");
  MachineParams mp = machine_from_flags(f);
  // Minimal fault scenario flags so `profile --causal=1` can attribute
  // retry and straggler spans on the measured critical path (the full
  // scenario surface lives on `inject`).
  if (f.has("drop") || f.has("stragglers")) {
    auto plan = std::make_shared<FaultPlan>();
    plan->seed = f.size("fault-seed");
    plan->drop_prob = f.number("drop");
    plan->reliable = true;
    for (const auto& [pid, factor] :
         parse_pid_values(f.text("stragglers"), "profile: --stragglers")) {
      plan->stragglers.push_back({pid, factor});
    }
    mp.faults = std::move(plan);
  }
  const AlgorithmChoice choice =
      algorithm_from_flags(f, algorithm, mp, "profile");
  choice.impl->check_applicable(n, p);
  Rng rng(f.size("seed"));
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);

  reset_kernel_wall_profile();
  enable_kernel_wall_profile(true);
  const auto wall_start = std::chrono::steady_clock::now();
  const MatmulResult result = choice.impl->run(a, b, p, mp);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  enable_kernel_wall_profile(false);
  const KernelWallProfile kwp = kernel_wall_profile();
  const RunReport& report = result.report;

  // Per-phase table: busy-time maxima over processors, traffic totals, and
  // the slice of the critical path each phase accounts for (slices sum to
  // T_p).
  Table phases({"phase", "compute", "comm", "idle", "messages", "words",
                "T_p slice"});
  for (const PhaseBreakdown& ph : report.phases) {
    phases.begin_row()
        .add(ph.name.empty() ? "(unphased)" : ph.name)
        .add_num(ph.max_compute_time, 6)
        .add_num(ph.max_comm_time, 6)
        .add_num(ph.max_idle_time, 6)
        .add(std::to_string(ph.messages))
        .add(std::to_string(ph.words))
        .add_num(ph.path.total(), 6);
  }

  // Overhead reconciliation: the measured critical-path terms against the
  // analytical model's terms. Evaluating the model with t_w = 0 isolates
  // its startup (t_s + hop) term; t_s = t_h = 0 isolates the per-word t_w
  // term (exact for the paper's linear comm models).
  MachineParams mp_startup = mp;
  mp_startup.t_w = 0.0;
  MachineParams mp_word = mp;
  mp_word.t_s = 0.0;
  mp_word.t_h = 0.0;
  const auto model_startup =
      algorithm_from_flags(f, algorithm, mp_startup, "profile").model;
  const auto model_word =
      algorithm_from_flags(f, algorithm, mp_word, "profile").model;
  const double nd = static_cast<double>(n);
  const double pd = static_cast<double>(p);
  const PathTerms& cp = report.critical_path;

  Table rec({"term", "measured", "model", "ratio"});
  const auto rec_row = [&rec](const std::string& term, double measured,
                              double model) {
    rec.begin_row().add(term).add_num(measured, 6);
    if (model > 0.0) {
      rec.add_num(model, 6).add_num(measured / model, 4);
    } else {
      rec.add(measured == 0.0 ? "0" : "-").add("-");
    }
  };
  rec_row("compute (n^3/p)", cp.compute, nd * nd * nd / pd);
  rec_row("startup (t_s)", cp.startup, model_startup->comm_time(nd, pd));
  rec_row("word (t_w)", cp.word, model_word->comm_time(nd, pd));
  if (cp.modeled > 0.0) rec_row("modeled collectives", cp.modeled, 0.0);
  if (cp.other > 0.0) rec_row("other (delays/retries)", cp.other, 0.0);
  // Distance from optimal: total measured words against the communication
  // lower bound at this formulation's memory footprint (analysis/bounds).
  // The ratio column is the distance-from-optimal scoreboard entry; >= 1
  // always, and close to 1 only for communication-optimal formulations.
  const DistanceFromOptimal dist = distance_from_measured(
      *choice.model, nd, pd, static_cast<double>(report.total_words));
  rec_row("words vs lower bound", dist.measured_total_words,
          dist.bound.total_words);

  write_output(f, os, "profile", "profile report", [&](std::ostream& s) {
    s << algorithm << ": n=" << n << " p=" << p << " (" << mp.label << ")\n";
    print_table(f, phases, s);
    print_table(f, rec, s);
    s << "T_p = " << format_number(report.t_parallel, 6)
      << " (critical path sums to " << format_number(cp.total(), 6) << ")\n";
    // Measured (causal-DAG) critical path against the model-term chain:
    // both decompose T_p into the same terms, so on a fault-free run the
    // totals agree to rounding (docs/observability.md).
    if (report.causal.enabled) {
      const CausalSummary& ca = report.causal;
      s << "causal: " << report.engine.causal_spans << " spans ("
        << (ca.complete ? "complete" : "sampled") << ", "
        << report.engine.causal_bytes << " bytes)\n";
      if (ca.complete) {
        const PathTerms& m = ca.measured;
        s << "  measured path: " << ca.path_spans << " spans, compute "
          << format_number(m.compute, 6) << " + startup "
          << format_number(m.startup, 6) << " + word "
          << format_number(m.word, 6);
        if (m.modeled > 0.0) s << " + modeled " << format_number(m.modeled, 6);
        if (m.other > 0.0) s << " + other " << format_number(m.other, 6);
        s << " = " << format_number(m.total(), 6) << "\n";
        s << "  measured vs T_p delta: "
          << format_number(std::abs(m.total() - report.t_parallel), 3) << "\n";
        if (ca.fault_overhead > 0.0) {
          s << "  fault overhead on path: "
            << format_number(ca.fault_overhead, 6) << "\n";
        }
        for (const CausalSpanNote& note : ca.fault_spans) {
          s << "    " << note.kind << " span: pid " << note.pid;
          if (!note.phase.empty()) s << " phase " << note.phase;
          s << " [" << format_number(note.start, 6) << ", "
            << format_number(note.end, 6) << "] +"
            << format_number(note.overhead, 6) << "\n";
        }
      }
    }
    // Engine self-telemetry: what the simulator itself spent to produce the
    // numbers above (arena occupancy, event throughput, host pool).
    const EngineTelemetry& eng = report.engine;
    s << "engine: " << eng.events << " events ("
      << format_number(eng.events_per_vtime, 4) << "/vtime), arena "
      << eng.arena_bytes << " bytes, inbox " << eng.inbox_pending << "/"
      << eng.inbox_slots << " slots pending (high-water "
      << eng.inbox_high_water << ", free-list " << eng.inbox_free << ")\n";
    if (eng.pool_threads > 0) {
      s << "engine pool: " << eng.pool_threads << " threads, "
        << eng.pool_batches << " batches, " << eng.pool_items << " items, "
        << format_number(eng.pool_busy_seconds * 1e3, 4) << " ms busy\n";
    }
    s << "host wall: " << format_number(wall_seconds * 1e3, 4) << " ms";
    if (kwp.calls > 0) {
      s << " (packed kernel: " << kwp.calls << " calls, "
        << format_number(kwp.seconds * 1e3, 4) << " ms)";
    }
    s << "\n";
  });
  return 0;
}

int cmd_reproduce(const Flags& f, std::ostream& os) {
  const std::string which = f.text("experiment");
  const std::vector<ExperimentResult> results =
      which == "all" ? ExperimentSuite::run_all()
                     : std::vector{ExperimentSuite::run(which)};
  ExperimentSuite::print_report(results, os);
  for (const auto& r : results) {
    if (!r.all_passed()) return 1;
  }
  return 0;
}

int cmd_inject(const Flags& f, std::ostream& os) {
  const std::string algorithm = f.text("algorithm");
  const std::size_t n = f.size("n");
  const std::size_t p = f.size("p");
  const auto& reg = default_registry();
  require(reg.contains(algorithm),
          "inject: unknown algorithm '" + algorithm + "'");

  auto plan = std::make_shared<FaultPlan>();
  plan->seed = f.size("seed");
  plan->drop_prob = f.number("drop");
  plan->duplicate_prob = f.number("dup");
  plan->delay_prob = f.number("delay");
  plan->delay_factor = f.number("delay-factor");
  plan->corrupt_prob = f.number("corrupt");
  const std::string abft = f.text("abft");
  if (abft == "detect") plan->abft = AbftMode::kDetect;
  if (abft == "correct") plan->abft = AbftMode::kCorrect;
  plan->reliable = f.boolean("reliable");
  plan->rto_factor = f.number("rto");
  plan->rto_backoff = f.number("backoff");
  plan->max_retries = static_cast<std::uint32_t>(f.size("retries"));
  for (const auto& [pid, factor] :
       parse_pid_values(f.text("stragglers"), "inject: --stragglers")) {
    plan->stragglers.push_back({pid, factor});
  }
  for (const auto& [pid, time] :
       parse_pid_values(f.text("failstop"), "inject: --failstop")) {
    plan->failstops.push_back({pid, time});
  }

  MachineParams mp = machine_from_flags(f);
  mp.faults = plan;

  reg.implementation(algorithm).check_applicable(n, p);
  Rng rng(f.size("data-seed"));
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);

  const ResilientRun run = run_resilient(a, b, p, mp, algorithm);

  const double max_err = max_abs_diff(run.result.c, multiply(a, b));
  const bool ok = max_err <= product_tolerance(n);

  os << "inject: " << algorithm << " n=" << n << " p=" << p << " ("
     << mp.label << ")\n"
     << "  plan            = " << plan->summary() << "\n";
  for (const auto& ev : run.degradations) {
    os << "  degradation     = processor " << ev.failed_pid
       << " fail-stopped at t=" << format_number(ev.failed_at, 6)
       << "; re-planned " << ev.procs_before << " -> " << ev.procs_after
       << " procs (" << ev.algorithm << ")\n";
  }
  os << "  completed on    = " << run.algorithm << " with " << run.procs
     << " procs\n"
     << "  T_p (simulated) = "
     << format_number(run.result.report.t_parallel, 6) << "\n";
  if (run.wasted_time > 0.0) {
    os << "  wasted (fails)  = " << format_number(run.wasted_time, 6) << "\n";
  }
  const FaultStats& fs = run.result.report.faults;
  if (fs.any()) os << "  faults          = " << fs.summary() << "\n";
  os << "  product check   = " << (ok ? "ok" : "MISMATCH") << " (max error "
     << format_number(max_err, 2) << ")\n";
  return ok ? 0 : 1;
}

/// The request stream: a script file, a named chaos scenario, or the seeded
/// generator. Scenario knobs left unset keep that scenario's own default.
std::vector<TenantRequest> serve_requests(const Flags& f, SloTargets& slos) {
  const std::string script = f.text("script");
  const std::string scenario = f.text("scenario");
  require(script.empty() || scenario.empty(),
          "serve: --script and --scenario are mutually exclusive");
  const auto set = [&f](const char* name, auto& field) {
    if (!f.has(name)) return;
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<T, double>) {
      field = f.number(name);
    } else if constexpr (std::is_same_v<T, bool>) {
      field = f.boolean(name);
    } else if constexpr (std::is_same_v<T, std::string>) {
      field = f.text(name);
    } else {
      field = static_cast<T>(f.size(name));
    }
  };
  if (!script.empty()) {
    std::ifstream in(script);
    require(in.good(), "serve: cannot open --script file '" + script + "'");
    ServeWorkload workload = parse_serve_workload(in);
    slos = std::move(workload.slos);
    return std::move(workload.requests);
  }
  if (scenario == "noisy-neighbor") {
    NoisyNeighborOptions o;
    set("healthy", o.healthy_requests);
    set("noisy", o.noisy_requests);
    set("gap", o.gap);
    set("corrupt", o.corrupt_prob);
    set("seed", o.seed);
    set("machine", o.machine);
    set("noisy-faulty", o.noisy_faulty);
    return noisy_neighbor_scenario(o);
  }
  if (scenario == "thundering-herd") {
    ThunderingHerdOptions o;
    set("requests", o.requests);
    set("tenants", o.tenants);
    set("machine", o.machine);
    return thundering_herd_scenario(o);
  }
  if (scenario == "straggler-storm") {
    StragglerStormOptions o;
    set("requests", o.requests);
    set("gap", o.gap);
    set("max-slowdown", o.max_slowdown);
    set("seed", o.seed);
    set("machine", o.machine);
    return straggler_storm_scenario(o);
  }
  WorkloadOptions o;
  set("requests", o.requests);
  set("tenants", o.tenants);
  set("seed", o.seed);
  set("mean-gap", o.mean_gap);
  set("fault-fraction", o.fault_fraction);
  set("machine", o.machine);
  return generate_workload(o);
}

int cmd_serve(const Flags& f, std::ostream& os) {
  SloTargets slos;
  std::vector<TenantRequest> requests = serve_requests(f, slos);

  ServeOptions opt;
  opt.slots = f.size("slots");
  opt.threads = static_cast<unsigned>(f.size("threads"));
  opt.queue_capacity = f.size("queue");
  opt.tenant_quota = f.size("quota");
  opt.breaker_threshold = static_cast<unsigned>(f.size("breaker-threshold"));
  opt.breaker_cooldown = f.number("breaker-cooldown");
  opt.max_retries = static_cast<unsigned>(f.size("retries"));
  opt.backoff_base = f.number("backoff-base");
  opt.backoff_factor = f.number("backoff-factor");
  opt.backoff_jitter = f.number("backoff-jitter");
  opt.deadline_factor = f.number("deadline-factor");
  opt.seed = f.size("seed");
  opt.plan_cache_capacity = f.size("cache");
  opt.keep_request_log = f.boolean("log");
  opt.window = f.number("window");
  opt.metrics_every = f.number("metrics-every");
  require(opt.metrics_every == 0.0 || f.has("metrics-out"),
          "serve: --metrics-every streams snapshots into --metrics-out, "
          "which is missing");
  // The CLI objectives become the "*" default; script `slo` lines keep
  // their per-tenant precedence over it.
  if (f.has("slo-p99")) slos["*"].p99 = f.number("slo-p99");
  if (f.has("slo-availability")) {
    slos["*"].availability = f.number("slo-availability");
  }
  opt.slos = std::move(slos);

  const Server server(opt);
  const ServeReport report = server.run(std::move(requests));

  const std::string journal_path = f.text("journal");
  if (!journal_path.empty()) {
    write_file("serve", "journal", journal_path, [&report](std::ostream& s) {
      report.journal.write_jsonl(s);
    });
    os << "wrote journal (" << report.journal.size() << " events) to "
       << journal_path << "\n";
  }
  const std::string timeline_path = f.text("timeline");
  if (!timeline_path.empty()) {
    write_file("serve", "timeline", timeline_path, [&report](std::ostream& s) {
      write_serve_timeline(s, report.journal, report.options.slots);
    });
    os << "wrote timeline to " << timeline_path << "\n";
  }
  // Metrics export: one final snapshot, or — with --metrics-every — the
  // virtual-time-stamped snapshot stream the serial event loop captured
  // (byte-identical for every --threads; docs/observability.md).
  write_metrics_out(
      f, os, "serve",
      [&report](std::ostream& s, MetricsExportFormat format) {
        if (report.metric_snapshots.empty()) {
          write_metrics(report.metrics, format, s);
          return;
        }
        if (format == MetricsExportFormat::kPrometheus) {
          for (const auto& snap : report.metric_snapshots) {
            s << "# snapshot t=" << json_number(snap.time) << "\n";
            write_prometheus(snap.metrics, s);
          }
          return;
        }
        s << "{\"snapshots\": [";
        bool first = true;
        for (const auto& snap : report.metric_snapshots) {
          if (!first) s << ", ";
          first = false;
          s << "{\"time\": " << json_number(snap.time) << ", \"metrics\": ";
          write_otlp_json(snap.metrics, s);
          s << "}";
        }
        s << "]}";
      });

  write_output(f, os, "serve", "serve report", [&](std::ostream& s) {
    if (f.text("format") == "json") {
      report.write_json(s);
      s << "\n";
    } else {
      print_table(f, report.tenant_table(), s);
      s << report.summary() << "\n";
    }
  });
  if (f.boolean("slo-strict") && report.slo_breached()) {
    os << "serve: SLO breached:";
    for (const auto& v : report.slo) {
      if (v.breached()) os << " " << v.tenant;
    }
    os << "\n";
    return 3;
  }
  return 0;
}

// ---- flag tables -----------------------------------------------------------

Flag format_flag() {
  return choice_flag("format", "aligned", "aligned|csv|markdown|json",
                     "table format");
}
Flag algorithm_flag(const char* fallback) {
  return text_flag("algorithm", fallback, "registry name (hpmm list)", "NAME");
}
Flag order_flag(const char* fallback) {
  return int_flag("n", fallback, "matrix order", 1);
}
Flag procs_flag(const char* fallback) {
  return int_flag("p", fallback, "processor count", 1);
}
Flag seed_flag(const char* name, std::string fallback, const char* help) {
  return int_flag(name, fallback, help, 0);
}
Flag c_flag() {
  return int_flag("c", "", "cannon25d replication factor (power of two)", 1);
}
Flag prob_flag(const char* name, std::string fallback, const char* help) {
  return num_flag(name, fallback, help, 0, 1);
}
Flag cells_flag(const char* name, const char* fallback, const char* help) {
  return int_flag(name, fallback, help, 2, 1000);
}
Flag file_flag(const char* name, const char* help) {
  return text_flag(name, "", help, "FILE");
}

/// A default taken from the library, as typed on the command line (exactly:
/// json_number round-trips doubles).
template <class T>
std::string typed(T value) {
  if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else {
    return json_number(value);
  }
}

/// The command table: every subcommand and the flags it declares.
std::vector<Command> build_commands() {
  const FlagTable& machine = machine_flags();
  const FlagTable& output = output_flags();
  const Flag operand_seed = seed_flag("seed", "42", "seed of the operands");
  std::string experiments = "all";
  for (const std::string& id : ExperimentSuite::ids()) experiments += "|" + id;
  const ServeOptions serve;
  return {
      {"list", "registered formulations and applicability", {format_flag()},
       cmd_list},
      {"machines", "named machine parameter sets", {format_flag()},
       cmd_machines},
      {"select", "pick the best formulation for --n, --p",
       join({{order_flag(""), procs_flag(""),
              bool_flag("simulatable", "1",
                        "0 ranks by model applicability alone"),
              format_flag()},
             machine}),
       cmd_select},
      {"run", "simulate one multiplication (--algorithm, --n, --p)",
       join({{algorithm_flag("gk"), order_flag("64"), procs_flag("64"),
              c_flag(), operand_seed,
              file_flag("metrics-out", "metrics registry (.prom or .json)")},
             machine, output}),
       cmd_run},
      {"iso", "isoefficiency curve (--algorithm, --efficiency)",
       join({{algorithm_flag("gk"), c_flag(),
              num_flag("efficiency", "0.7", "target efficiency", 0, 1),
              num_flag("pmin", "8", "smallest p", 1),
              num_flag("pmax", "1e9", "largest p", 1), format_flag()},
             machine}),
       cmd_iso},
      {"regions", "best-algorithm map (Figures 1-3; --with-25d, --with-bounds)",
       join({{num_flag("pmin", "1", "smallest p", 1),
              num_flag("pmax", "1e9", "largest p", 1),
              cells_flag("pcells", "72", "map columns"),
              num_flag("nmin", "1", "smallest n", 1),
              num_flag("nmax", "1e5", "largest n", 1),
              cells_flag("ncells", "36", "map rows"),
              bool_flag("with-25d", "0", "add the 2.5D envelope as 'e'"),
              bool_flag("with-bounds", "0", "upper-case comm-optimal cells"),
              num_flag("n", "", "with --p: (t_s, t_w) map at this n", 1),
              num_flag("p", "", "with --n: (t_s, t_w) map at this p", 1),
              num_flag("tsmin", "0.1", "dual view: smallest t_s", 0),
              num_flag("tsmax", "1000", "dual view: largest t_s", 0),
              cells_flag("tscells", "72", "dual view: columns"),
              num_flag("twmin", "0.2", "dual view: smallest t_w", 0),
              num_flag("twmax", "30", "dual view: largest t_w", 0),
              cells_flag("twcells", "24", "dual view: rows")},
             machine}),
       cmd_regions},
      {"bounds", "communication lower bounds and distance from optimal",
       join({{text_flag("algo", "all", "registry name, or all", "NAME"),
              order_flag("64"), procs_flag("64"),
              num_flag("memory", "1048576", "words per processor", 1),
              bool_flag("measured", "0", "simulate; add measured words"),
              operand_seed, c_flag(), format_flag()},
             machine}),
       cmd_bounds},
      {"crossover", "equal-overhead curve for a pair (--a, --b)",
       join({{text_flag("a", "gk", "first registry name", "NAME"),
              text_flag("b", "cannon", "second registry name", "NAME"),
              c_flag(), num_flag("pmin", "4", "smallest p", 1),
              num_flag("pmax", "1e9", "largest p", 1), format_flag()},
             machine}),
       cmd_crossover},
      {"trace", "simulate with tracing: Gantt chart or Chrome trace JSON",
       join({{algorithm_flag("gk"), order_flag("16"), procs_flag("8"),
              c_flag(), seed_flag("seed", "5", "seed of the operands"),
              choice_flag("format", "gantt", "gantt|chrome", "output"),
              file_flag("out", "write the chrome trace to FILE"),
              int_flag("width", "72", "Gantt columns", 8, 1000),
              int_flag("procs", "16", "processors in the Gantt chart", 0)},
             machine}),
       cmd_trace},
      {"profile", "per-phase breakdown and overhead reconciliation",
       join({{algorithm_flag("cannon"), order_flag("64"), procs_flag("16"),
              c_flag(), operand_seed,
              prob_flag("drop", "0", "message drop probability"),
              text_flag("stragglers", "", "slow these processors",
                        "PID:FACTOR,..."),
              seed_flag("fault-seed", "1", "seed of the fault plan")},
             machine, output}),
       cmd_profile},
      {"reproduce", "check the paper's claims against this build",
       {choice_flag("experiment", "all", experiments, "claims to check")},
       cmd_reproduce},
      {"inject", "simulate under injected faults, verify the product",
       join({{algorithm_flag("cannon"), order_flag("64"), procs_flag("16"),
              seed_flag("seed", "1", "fault-plan seed"),
              prob_flag("drop", "0", "message drop probability"),
              prob_flag("dup", "0", "duplicate-delivery probability"),
              prob_flag("delay", "0", "delayed-delivery probability"),
              num_flag("delay-factor", "1", "delay, in message times", 0),
              prob_flag("corrupt", "0", "single-bit corruption probability"),
              choice_flag("abft", "off", "off|detect|correct",
                          "checksum-guard blocks in transit"),
              text_flag("stragglers", "", "slow these processors",
                        "PID:FACTOR,..."),
              text_flag("failstop", "", "fail-stop, then re-plan",
                        "PID:TIME,..."),
              bool_flag("reliable", "1", "ack/timeout/retransmit"),
              int_flag("retries", "12", "retransmission budget", 0),
              num_flag("rto", "2", "timeout, in message times", 0),
              num_flag("backoff", "2", "timeout backoff factor", 0),
              seed_flag("data-seed", "42", "seed of the operands")},
             machine}),
       cmd_inject},
      {"serve", "multi-tenant serving: admission, retries, chaos scenarios",
       join({{file_flag("script", "scripted request stream"),
              choice_flag("scenario", "",
                          "noisy-neighbor|thundering-herd|straggler-storm",
                          "built-in chaos scenario"),
              int_flag("requests", "", "requests to generate", 0),
              int_flag("tenants", "", "tenants to generate", 1),
              num_flag("mean-gap", "", "generator: mean arrival gap"),
              prob_flag("fault-fraction", "", "generator: faulty fraction"),
              choice_flag("machine", "", machines::preset_names("|"),
                          "machine of generated requests"),
              int_flag("healthy", "", "noisy-neighbor: healthy requests", 0),
              int_flag("noisy", "", "noisy-neighbor: noisy requests", 0),
              num_flag("gap", "", "scenario arrival gap"),
              prob_flag("corrupt", "", "noisy-neighbor: corruption"),
              bool_flag("noisy-faulty", "1", "noisy-neighbor: inject faults"),
              num_flag("max-slowdown", "", "straggler-storm: worst factor"),
              seed_flag("seed", typed(serve.seed), "workload seed"),
              int_flag("slots", typed(serve.slots), "service slots", 1),
              int_flag("threads", typed(serve.threads), "host threads", 1,
                       1024),
              int_flag("queue", typed(serve.queue_capacity), "queue bound", 1),
              int_flag("quota", typed(serve.tenant_quota), "tenant quota", 1),
              int_flag("breaker-threshold", typed(serve.breaker_threshold),
                       "failures that trip a breaker", 1),
              num_flag("breaker-cooldown", typed(serve.breaker_cooldown),
                       "time before a half-open probe", 0),
              int_flag("retries", typed(serve.max_retries), "retry budget", 0),
              num_flag("backoff-base", typed(serve.backoff_base),
                       "first retry delay", 0),
              num_flag("backoff-factor", typed(serve.backoff_factor),
                       "retry delay growth", 0),
              prob_flag("backoff-jitter", typed(serve.backoff_jitter),
                        "randomized fraction of a delay"),
              num_flag("deadline-factor", typed(serve.deadline_factor),
                       "deadline as a multiple of predicted T_p", 0),
              int_flag("cache", typed(serve.plan_cache_capacity),
                       "plan cache capacity", 0),
              bool_flag("log", serve.keep_request_log ? "1" : "0",
                        "keep per-request records"),
              file_flag("journal", "decision journal (JSONL)"),
              file_flag("timeline", "Chrome-trace timeline"),
              num_flag("window", typed(serve.window), "series window"),
              num_flag("slo-p99", "", "default p99 latency objective"),
              num_flag("slo-availability", "", "default success objective"),
              bool_flag("slo-strict", "0", "exit 3 on a breached objective"),
              file_flag("metrics-out", "metrics registry (.prom or .json)"),
              num_flag("metrics-every", typed(serve.metrics_every),
                       "snapshot period into --metrics-out", 0)},
             output}),
       cmd_serve},
  };
}

}  // namespace

const FlagTable& machine_flags() {
  static const FlagTable kFlags = [] {
    const MachineParams base = machines::ncube2();
    std::string kernels;
    for (Kernel k : kAllKernels) {
      kernels += (kernels.empty() ? "" : "|") + to_string(k);
    }
    return FlagTable{
        choice_flag("machine", "", machines::preset_names("|"),
                    "preset (hpmm machines); else --ts/--tw, or ncube2"),
        num_flag("ts", typed(base.t_s), "startup time t_s", 0),
        num_flag("tw", typed(base.t_w), "per-word time t_w", 0),
        choice_flag("kernel", to_string(ExecPolicy{}.kernel), kernels,
                    "local kernel (host wall-clock only)"),
        int_flag("threads", typed(ExecPolicy{}.threads),
                 "host threads (host wall-clock only)", 1, 1024),
        choice_flag("metrics", "full", "full|aggregate", "capture level"),
        choice_flag("traffic", "auto", "auto|on|off",
                    "traffic matrix; auto = p <= " +
                        typed(MachineParams::kTrafficAutoThreshold)),
        prob_flag("trace-sample", "1", "fraction of processors traced"),
        seed_flag("trace-seed", "0", "seed of the trace sampling"),
        bool_flag("causal", "0", "record the span DAG")};
  }();
  return kFlags;
}

const FlagTable& output_flags() {
  static const FlagTable kFlags = {
      format_flag(), file_flag("out", "write the report to FILE")};
  return kFlags;
}

const std::vector<Command>& commands() {
  static const std::vector<Command> kCommands = build_commands();
  return kCommands;
}

MachineParams machine_from_args(const CliArgs& args) {
  return machine_from_flags(Flags(args, machine_flags()));
}

int dispatch(const CliArgs& args, std::ostream& os, std::ostream& err) {
  const std::string cmd =
      args.positionals().empty() ? "" : args.positionals().front();
  for (const Command& c : commands()) {
    if (c.name != cmd) continue;
    try {
      if (args.has("help")) {
        os << "usage: hpmm " << c.name << " [--flag=value ...]\n"
           << c.summary << "\n";
        print_flag_help(c.flags, os);
        return 0;
      }
      reject_undeclared(args, c.flags, c.name);
      return c.run(Flags(args, c.flags), os);
    } catch (const PreconditionError& e) {
      err << "error: " << e.what() << "\n";
      return 1;
    } catch (const InternalError& e) {
      err << "internal error (please report): " << e.what() << "\n";
      return 2;
    }
  }
  err << "usage: hpmm <command> [--flag=value ...]\n";
  for (const Command& c : commands()) {
    err << "  " << c.name << std::string(11 - c.name.size(), ' ') << c.summary
        << "\n";
  }
  err << "hpmm <command> --help lists its flags (docs/cli.md)\n";
  return 2;
}

}  // namespace hpmm::tools
