#include "tools/commands.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"

namespace hpmm::tools {
namespace {

CliArgs make(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data());
}

struct Run {
  int code;
  std::string out;
  std::string err;
};

Run run(const std::vector<const char*>& argv) {
  std::ostringstream os, es;
  const int code =
      dispatch(CliArgs(static_cast<int>(argv.size()), argv.data()), os, es);
  return Run{code, os.str(), es.str()};
}

TEST(Cli, NoArgsPrintsUsage) {
  const auto r = run({"hpmm"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage"), std::string::npos);
}

TEST(Cli, UnknownCommandPrintsUsage) {
  const auto r = run({"hpmm", "frobnicate"});
  EXPECT_EQ(r.code, 2);
}

TEST(Cli, ListShowsAllAlgorithms) {
  const auto r = run({"hpmm", "list"});
  EXPECT_EQ(r.code, 0);
  for (const char* name :
       {"cannon", "cannon25d", "gk", "berntsen", "dns", "fox-pipe"}) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
}

TEST(Cli, MachinesShowsPresets) {
  const auto r = run({"hpmm", "machines"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("cm5"), std::string::npos);
  EXPECT_NE(r.out.find("248"), std::string::npos);  // normalised t_s
}

TEST(Cli, SelectPicksBest) {
  const auto r = run({"hpmm", "select", "--n=512", "--p=64"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("best: berntsen"), std::string::npos);
}

TEST(Cli, SelectFailsWithoutArguments) {
  const auto r = run({"hpmm", "select"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--n and --p"), std::string::npos);
}

TEST(Cli, SelectReportsNoApplicable) {
  const auto r = run({"hpmm", "select", "--n=4", "--p=513"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("no applicable"), std::string::npos);
}

TEST(Cli, RunSimulatesAndVerifies) {
  const auto r = run({"hpmm", "run", "--algorithm=cannon", "--n=16", "--p=16"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("product check   = ok"), std::string::npos);
  EXPECT_NE(r.out.find("ratio 1"), std::string::npos);  // Eq. 3 exact
}

TEST(Cli, RunRejectsUnknownAlgorithm) {
  const auto r = run({"hpmm", "run", "--algorithm=magic", "--n=16", "--p=16"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown algorithm"), std::string::npos);
}

TEST(Cli, RunCannon25DWithReplicationFlag) {
  const auto r = run({"hpmm", "run", "--algorithm=cannon25d", "--n=32",
                      "--p=32", "--c=2"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("product check   = ok"), std::string::npos);
  EXPECT_NE(r.out.find("ratio 1"), std::string::npos);  // closed form exact
}

TEST(Cli, RunCannon25DBadGridExitsOneNamingTheFlag) {
  // p = 16 is not c q^2 for c = 2; the error must point at --c.
  const auto r = run({"hpmm", "run", "--algorithm=cannon25d", "--n=16",
                      "--p=16", "--c=2"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--c"), std::string::npos) << r.err;
}

TEST(Cli, RunCannon25DReplicationBeyondCubeRootExitsOne) {
  // c = 8 on p = 16 violates c^3 <= p.
  const auto r = run({"hpmm", "run", "--algorithm=cannon25d", "--n=64",
                      "--p=16", "--c=8"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--c"), std::string::npos) << r.err;
}

TEST(Cli, RunBerntsenWrongProcessorCountExitsOne) {
  const auto r = run({"hpmm", "run", "--algorithm=berntsen", "--n=64",
                      "--p=16"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("2^(3q)"), std::string::npos) << r.err;
}

TEST(Cli, RunDnsBeyondConcurrencyLimitExitsOne) {
  const auto r = run({"hpmm", "run", "--algorithm=dns", "--n=8", "--p=4096"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("at most n^3"), std::string::npos) << r.err;
}

TEST(Cli, IsoPrintsCurveAndFit) {
  const auto r = run({"hpmm", "iso", "--algorithm=cannon", "--efficiency=0.7",
                      "--pmax=1e7"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("fitted: W ~ p^1.5"), std::string::npos);
}

TEST(Cli, IsoMarksUnreachable) {
  const auto r = run({"hpmm", "iso", "--algorithm=dns", "--efficiency=0.9",
                      "--machine=ncube2", "--pmax=1e6"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("unreachable"), std::string::npos);
}

TEST(Cli, RegionsRendersMap) {
  const auto r = run({"hpmm", "regions", "--machine=cm2", "--pcells=24",
                      "--ncells=12"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("a=GK"), std::string::npos);
  EXPECT_NE(r.out.find('d'), std::string::npos);  // DNS region on the CM-2
}

TEST(Cli, RegionsMachineSpaceView) {
  const auto r = run({"hpmm", "regions", "--n=100", "--p=50000",
                      "--tscells=16", "--twcells=8"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("t_w up"), std::string::npos);
}

TEST(Cli, RegionsWith25DOverlay) {
  const auto r = run({"hpmm", "regions", "--machine=cm2", "--with-25d=1",
                      "--pcells=24", "--ncells=12"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("e=2.5D"), std::string::npos);
  // Default map must not mention the extended region.
  const auto base = run({"hpmm", "regions", "--machine=cm2", "--pcells=24",
                         "--ncells=12"});
  EXPECT_EQ(base.code, 0);
  EXPECT_EQ(base.out.find("e=2.5D"), std::string::npos);
}

TEST(Cli, CrossoverPrintsCurve) {
  const auto r = run({"hpmm", "crossover", "--a=gk", "--b=cannon",
                      "--machine=ncube2", "--pmax=1e6"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("n_EqualTo"), std::string::npos);
}

TEST(Cli, TracePrintsGantt) {
  const auto r = run({"hpmm", "trace", "--algorithm=cannon", "--n=16", "--p=16"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("Gantt"), std::string::npos);
  EXPECT_NE(r.out.find('#'), std::string::npos);
}

TEST(Cli, TraceRejectsBadCombo) {
  const auto r = run({"hpmm", "trace", "--algorithm=gk", "--n=10", "--p=64"});
  EXPECT_EQ(r.code, 1);  // 4 does not divide 10
}

TEST(Cli, ReproduceSingleExperiment) {
  const auto r = run({"hpmm", "reproduce", "--experiment=sec8"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("claims reproduced"), std::string::npos);
  EXPECT_EQ(r.out.find("[FAIL]"), std::string::npos);
}

TEST(Cli, ReproduceRejectsUnknownExperiment) {
  const auto r = run({"hpmm", "reproduce", "--experiment=fig9"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown experiment"), std::string::npos);
}

TEST(Cli, CsvFormat) {
  const auto r = run({"hpmm", "machines", "--format=csv"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("name,t_s,t_w"), std::string::npos);
}

TEST(Cli, MachineFromArgs) {
  EXPECT_DOUBLE_EQ(machine_from_args(make({"x", "--machine=cm2"})).t_s, 0.5);
  EXPECT_DOUBLE_EQ(machine_from_args(make({"x", "--ts=42"})).t_s, 42.0);
  EXPECT_DOUBLE_EQ(machine_from_args(make({"x"})).t_s, 150.0);  // default
  EXPECT_THROW(machine_from_args(make({"x", "--machine=zx81"})),
               PreconditionError);
}

TEST(Cli, UnknownMachineIsHandledByDispatch) {
  const auto r = run({"hpmm", "select", "--n=64", "--p=64", "--machine=zx81"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown machine"), std::string::npos);
}

TEST(Cli, UsageListsInject) {
  const auto r = run({"hpmm"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("inject"), std::string::npos);
}

TEST(Cli, InjectCleanPlanRuns) {
  const auto r = run({"hpmm", "inject", "--algorithm=cannon", "--n=16",
                      "--p=16"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("product check   = ok"), std::string::npos);
}

TEST(Cli, InjectDropScenarioMasksLossAndCountsRetransmissions) {
  const auto r = run({"hpmm", "inject", "--algorithm=cannon", "--n=32",
                      "--p=16", "--drop=0.01", "--stragglers=3:2",
                      "--seed=1"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("product check   = ok"), std::string::npos);
  EXPECT_NE(r.out.find("rexmit="), std::string::npos);
}

TEST(Cli, InjectFailStopDegradesInsteadOfAborting) {
  const auto r = run({"hpmm", "inject", "--algorithm=cannon", "--n=32",
                      "--p=16", "--failstop=5:1000"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("degradation"), std::string::npos);
  EXPECT_NE(r.out.find("re-planned 16 -> "), std::string::npos);
  EXPECT_NE(r.out.find("product check   = ok"), std::string::npos);
}

TEST(Cli, InjectCorruptionDetectOnlyExposesMismatch) {
  const auto r = run({"hpmm", "inject", "--algorithm=gk", "--n=32", "--p=8",
                      "--corrupt=0.05", "--abft=detect", "--seed=1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("MISMATCH"), std::string::npos);
}

TEST(Cli, InjectCorruptionWithCorrectionPasses) {
  const auto r = run({"hpmm", "inject", "--algorithm=gk", "--n=32", "--p=8",
                      "--corrupt=0.05", "--abft=correct", "--seed=1"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("abft-corrected="), std::string::npos);
}

TEST(Cli, InjectRejectsMalformedScenarioFlags) {
  EXPECT_EQ(run({"hpmm", "inject", "--abft=sometimes"}).code, 1);
  EXPECT_EQ(run({"hpmm", "inject", "--stragglers=3"}).code, 1);
  EXPECT_EQ(run({"hpmm", "inject", "--failstop=a:b"}).code, 1);
  EXPECT_EQ(run({"hpmm", "inject", "--drop=1.5"}).code, 1);
}

TEST(Cli, InvalidShapeExitsWithCallerError) {
  // Satellite: a PreconditionError from an invalid (n, p) maps to exit 1.
  const auto r = run({"hpmm", "run", "--algorithm=cannon", "--n=16",
                      "--p=10"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, ExhaustedRetryBudgetIsAnInternalError) {
  // drop=1 with a tiny retry budget exhausts the reliable protocol, which is
  // an InternalError (bug-or-misconfiguration), mapped to exit 2.
  const auto r = run({"hpmm", "inject", "--algorithm=cannon", "--n=16",
                      "--p=16", "--drop=1", "--retries=2"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("internal error"), std::string::npos);
}

TEST(Cli, GarbageNumericFlagExitsOneNamingTheFlag) {
  // --p=abc used to silently parse as p=0; it must fail loudly instead.
  const auto r = run({"hpmm", "run", "--p=abc"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--p"), std::string::npos);
  EXPECT_NE(r.err.find("abc"), std::string::npos);
  EXPECT_EQ(run({"hpmm", "run", "--n=64x"}).code, 1);
  EXPECT_EQ(run({"hpmm", "inject", "--drop=oops"}).code, 1);
}

TEST(Cli, KernelAndThreadsFlags) {
  const auto r = run({"hpmm", "run", "--algorithm=cannon", "--n=32", "--p=16",
                      "--kernel=packed", "--threads=2"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("product check   = ok"), std::string::npos);
}

TEST(Cli, UnknownKernelExitsOne) {
  const auto r = run({"hpmm", "run", "--kernel=bogus"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown kernel"), std::string::npos);
}

TEST(Cli, NonPositiveThreadsExitsOne) {
  const auto r = run({"hpmm", "run", "--threads=0"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--threads"), std::string::npos);
  EXPECT_EQ(run({"hpmm", "run", "--threads=-2"}).code, 1);
}

TEST(Cli, ThreadedFaultyRunMatchesSerial) {
  // The acceptance scenario end to end through the CLI: identical simulated
  // output for --threads=1 and --threads=4 on a faulty run.
  const auto serial =
      run({"hpmm", "inject", "--algorithm=cannon", "--n=32", "--p=16",
           "--drop=0.02", "--stragglers=3:2", "--threads=1"});
  const auto threaded =
      run({"hpmm", "inject", "--algorithm=cannon", "--n=32", "--p=16",
           "--drop=0.02", "--stragglers=3:2", "--threads=4",
           "--kernel=packed"});
  EXPECT_EQ(serial.code, 0);
  EXPECT_EQ(threaded.code, 0);
  EXPECT_EQ(serial.out, threaded.out);  // byte-for-byte identical report
}

TEST(Cli, RunJsonFormatIsValidAndComplete) {
  const auto r = run({"hpmm", "run", "--algorithm=cannon", "--n=16", "--p=16",
                      "--format=json"});
  EXPECT_EQ(r.code, 0);
  EXPECT_TRUE(json_valid(r.out)) << r.out;
  EXPECT_NE(r.out.find("\"report\""), std::string::npos);
  EXPECT_NE(r.out.find("\"phases\""), std::string::npos);
  EXPECT_NE(r.out.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(r.out.find("\"model_t_parallel\""), std::string::npos);
  EXPECT_NE(r.out.find("\"product_correct\":true"), std::string::npos);
}

TEST(Cli, TraceChromeFormatIsValidJson) {
  const auto r = run({"hpmm", "trace", "--algorithm=cannon", "--n=16",
                      "--p=16", "--format=chrome"});
  EXPECT_EQ(r.code, 0);
  EXPECT_TRUE(json_valid(r.out)) << r.out;
  EXPECT_NE(r.out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(r.out.find("\"shift\""), std::string::npos);  // phase names carried
}

TEST(Cli, TraceChromeWritesOutFile) {
  const std::string path = ::testing::TempDir() + "hpmm_trace_test.json";
  const std::string out_flag = "--out=" + path;
  const auto r = run({"hpmm", "trace", "--algorithm=gk", "--n=16", "--p=8",
                      "--format=chrome", out_flag.c_str()});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("wrote chrome trace"), std::string::npos);
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream ss;
  ss << file.rdbuf();
  EXPECT_TRUE(json_valid(ss.str()));
  std::remove(path.c_str());
}

TEST(Cli, TraceRejectsUnknownFormat) {
  const auto r = run({"hpmm", "trace", "--algorithm=cannon", "--n=16",
                      "--p=16", "--format=svg"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("format"), std::string::npos);
}

TEST(Cli, ProfilePrintsPhaseAndReconciliationTables) {
  const auto r = run({"hpmm", "profile", "--algorithm=cannon", "--n=32",
                      "--p=16"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("phase"), std::string::npos);
  EXPECT_NE(r.out.find("multiply"), std::string::npos);
  EXPECT_NE(r.out.find("startup (t_s)"), std::string::npos);
  EXPECT_NE(r.out.find("word (t_w)"), std::string::npos);
  EXPECT_NE(r.out.find("ratio"), std::string::npos);
  EXPECT_NE(r.out.find("host wall"), std::string::npos);
}

TEST(Cli, ProfileDefaultsAndUsageMentionIt) {
  const auto defaults = run({"hpmm", "profile"});
  EXPECT_EQ(defaults.code, 0);
  EXPECT_NE(defaults.out.find("cannon"), std::string::npos);
  const auto usage = run({"hpmm"});
  EXPECT_NE(usage.err.find("profile"), std::string::npos);
}

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  std::stringstream ss;
  ss << file.rdbuf();
  return ss.str();
}

TEST(Cli, RunJsonAndProfileWriteOutFiles) {
  const std::string run_path = ::testing::TempDir() + "hpmm_run_out.json";
  const std::string run_flag = "--out=" + run_path;
  const auto rj = run({"hpmm", "run", "--algorithm=cannon", "--n=16",
                       "--p=16", "--format=json", run_flag.c_str()});
  EXPECT_EQ(rj.code, 0);
  EXPECT_NE(rj.out.find("wrote run report"), std::string::npos);
  EXPECT_TRUE(json_valid(slurp(run_path)));
  std::remove(run_path.c_str());

  const std::string prof_path = ::testing::TempDir() + "hpmm_profile_out.txt";
  const std::string prof_flag = "--out=" + prof_path;
  const auto rp = run({"hpmm", "profile", "--algorithm=cannon", "--n=16",
                       "--p=16", prof_flag.c_str()});
  EXPECT_EQ(rp.code, 0);
  EXPECT_NE(rp.out.find("wrote profile report"), std::string::npos);
  EXPECT_NE(slurp(prof_path).find("startup (t_s)"), std::string::npos);
  std::remove(prof_path.c_str());
}

TEST(Cli, UnwritableOutPathExitsOneNamingTheFile) {
  // A directory path can be opened by neither ofstream nor written through:
  // the hardened --out check must fail loudly, not quietly truncate.
  const std::string out_flag = "--out=" + ::testing::TempDir();
  const auto r = run({"hpmm", "run", "--algorithm=cannon", "--n=16", "--p=16",
                      "--format=json", out_flag.c_str()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--out"), std::string::npos);
}

TEST(Cli, ServeGeneratedWorkloadPrintsTenantTable) {
  const auto r = run({"hpmm", "serve", "--requests=8", "--tenants=2",
                      "--seed=5"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("tenant"), std::string::npos);
  EXPECT_NE(r.out.find("p99"), std::string::npos);
  EXPECT_NE(r.out.find("serve: 8 requests"), std::string::npos);
}

TEST(Cli, ServeJsonReportIsValidAndDeterministic) {
  const auto a = run({"hpmm", "serve", "--requests=10", "--seed=3",
                      "--fault-fraction=0.3", "--format=json"});
  const auto b = run({"hpmm", "serve", "--requests=10", "--seed=3",
                      "--fault-fraction=0.3", "--format=json",
                      "--threads=4"});
  EXPECT_EQ(a.code, 0);
  EXPECT_TRUE(json_valid(a.out)) << a.out;
  EXPECT_NE(a.out.find("\"tenants\""), std::string::npos);
  EXPECT_NE(a.out.find("\"p99\""), std::string::npos);
  // Byte-identical across host thread counts.
  EXPECT_EQ(a.out, b.out);
}

TEST(Cli, ServeScriptFileDrivesTheServer) {
  const std::string path = ::testing::TempDir() + "hpmm_serve_script.txt";
  {
    std::ofstream script(path);
    script << "request tenant=alice arrival=0 algo=cannon n=16 p=16\n"
              "request tenant=bob arrival=100 algo=gk n=16 p=8\n";
  }
  const std::string script_flag = "--script=" + path;
  const auto r = run({"hpmm", "serve", script_flag.c_str()});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("alice"), std::string::npos);
  EXPECT_NE(r.out.find("bob"), std::string::npos);
  EXPECT_NE(r.out.find("ok=2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ServeChaosScenarioTripsTheNoisyTenant) {
  const auto r = run({"hpmm", "serve", "--scenario=noisy-neighbor",
                      "--healthy=6", "--noisy=6"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("steady"), std::string::npos);
  EXPECT_NE(r.out.find("noisy"), std::string::npos);
}

TEST(Cli, ServeRejectsBadFlags) {
  EXPECT_EQ(run({"hpmm", "serve", "--scenario=meteor-strike"}).code, 1);
  EXPECT_EQ(run({"hpmm", "serve", "--slots=0"}).code, 1);
  EXPECT_EQ(run({"hpmm", "serve", "--requests=-1"}).code, 1);
  EXPECT_EQ(run({"hpmm", "serve", "--script=/nonexistent/x.txt"}).code, 1);
  EXPECT_EQ(run({"hpmm", "serve", "--requests=4", "--window=0"}).code, 1);
  EXPECT_EQ(
      run({"hpmm", "serve", "--requests=4", "--slo-availability=1.5"}).code,
      1);
  const auto both = run({"hpmm", "serve", "--script=x",
                         "--scenario=noisy-neighbor"});
  EXPECT_EQ(both.code, 1);
  EXPECT_NE(both.err.find("mutually exclusive"), std::string::npos);
}

TEST(Cli, ServeJournalAndTimelineFilesAreValid) {
  const std::string journal = ::testing::TempDir() + "hpmm_journal.jsonl";
  const std::string timeline = ::testing::TempDir() + "hpmm_timeline.json";
  const std::string journal_flag = "--journal=" + journal;
  const std::string timeline_flag = "--timeline=" + timeline;
  const auto r = run({"hpmm", "serve", "--requests=6", "--tenants=2",
                      "--seed=5", journal_flag.c_str(),
                      timeline_flag.c_str()});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("wrote journal ("), std::string::npos);
  EXPECT_NE(r.out.find("wrote timeline to"), std::string::npos);
  std::ifstream jf(journal);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(jf, line)) {
    EXPECT_TRUE(json_valid(line)) << line;
    ++lines;
  }
  EXPECT_GT(lines, 6u);  // at least arrival + terminal event per request
  std::ifstream tf(timeline);
  std::stringstream timeline_json;
  timeline_json << tf.rdbuf();
  EXPECT_TRUE(json_valid(timeline_json.str()));
  EXPECT_NE(timeline_json.str().find("\"executor slots\""),
            std::string::npos);
  std::remove(journal.c_str());
  std::remove(timeline.c_str());
  EXPECT_EQ(run({"hpmm", "serve", "--requests=4",
                 "--journal=/nonexistent/dir/j.jsonl"})
                .code,
            1);
}

TEST(Cli, ServeSloStrictExitsThreeOnBreach) {
  // An impossibly tight p99 objective breaches for every tenant.
  const auto strict = run({"hpmm", "serve", "--requests=6", "--seed=5",
                           "--slo-p99=1", "--slo-strict"});
  EXPECT_EQ(strict.code, 3);
  EXPECT_NE(strict.out.find("SLO breached"), std::string::npos);
  // Same breach without --slo-strict: verdicts are reported, exit stays 0.
  const auto lax = run({"hpmm", "serve", "--requests=6", "--seed=5",
                        "--slo-p99=1", "--format=json"});
  EXPECT_EQ(lax.code, 0);
  EXPECT_NE(lax.out.find("\"slo\":["), std::string::npos);
  EXPECT_NE(lax.out.find("\"p99_breached\":true"), std::string::npos);
  // A generous objective passes under --slo-strict.
  const auto healthy = run({"hpmm", "serve", "--requests=6", "--seed=5",
                            "--slo-availability=0.01", "--slo-strict"});
  EXPECT_EQ(healthy.code, 0);
}

TEST(Cli, BoundsTableCoversTheRegistry) {
  const auto r = run({"hpmm", "bounds", "--n=64", "--p=64", "--memory=192"});
  EXPECT_EQ(r.code, 0);
  for (const char* name : {"simple", "cannon", "cannon25d", "berntsen", "dns",
                           "gk", "gk-allport", "fox-pipe"}) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
  for (const char* cls : {"2D", "2.5D", "3D"}) {
    EXPECT_NE(r.out.find(cls), std::string::npos) << cls;
  }
  // Hand-computed floor at n=64, p=64: 576 words/proc, 36864 total; the
  // 2.5D strong-scaling range at M=192 runs 64..512.
  EXPECT_NE(r.out.find("576"), std::string::npos);
  EXPECT_NE(r.out.find("36.9K"), std::string::npos);
  EXPECT_NE(r.out.find("512"), std::string::npos);
  EXPECT_NE(r.out.find("strong-scaling range"), std::string::npos);
}

TEST(Cli, BoundsJsonIsValidAndOmitsTheFooter) {
  const auto r = run({"hpmm", "bounds", "--n=64", "--p=64", "--format=json"});
  EXPECT_EQ(r.code, 0);
  EXPECT_TRUE(json_valid(r.out)) << r.out;
  EXPECT_EQ(r.out.find("strong-scaling range"), std::string::npos);
  EXPECT_NE(r.out.find("\"class\": \"2.5D\""), std::string::npos);
}

TEST(Cli, BoundsMeasuredAddsTheScoreboardColumns) {
  const auto r = run({"hpmm", "bounds", "--n=16", "--p=512", "--measured=1",
                      "--algo=gk"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("measured words"), std::string::npos);
  EXPECT_NE(r.out.find("ratio"), std::string::npos);
  // GK at n=16, p=512 measures 6.14K words against a 5.38K floor.
  EXPECT_NE(r.out.find("6.14K"), std::string::npos);
  EXPECT_NE(r.out.find("1.143"), std::string::npos);
}

TEST(Cli, BoundsRejectsUnknownAlgoNamingTheFlag) {
  const auto r = run({"hpmm", "bounds", "--algo=nope"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--algo"), std::string::npos);
  EXPECT_NE(r.err.find("nope"), std::string::npos);
}

TEST(Cli, BoundsRejectsUnknownFormatNamingTheFlag) {
  const auto r = run({"hpmm", "bounds", "--format=bogus"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--format"), std::string::npos);
  EXPECT_NE(r.err.find("bogus"), std::string::npos);
}

TEST(Cli, WithBoundsOutsideRegionsExitsOneNamingTheFlag) {
  // The overlay only exists on the regions map; silently ignoring the flag
  // elsewhere would hide a typo'd workflow.
  const auto r = run({"hpmm", "run", "--algorithm=cannon", "--n=16", "--p=16",
                      "--with-bounds=1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--with-bounds"), std::string::npos);

  const auto dual =
      run({"hpmm", "regions", "--n=64", "--p=64", "--with-bounds=1"});
  EXPECT_EQ(dual.code, 1);
  EXPECT_NE(dual.err.find("--with-bounds"), std::string::npos);
}

TEST(Cli, RegionsWithBoundsUppercasesOptimalCellsOnly) {
  const auto plain = run({"hpmm", "regions"});
  const auto overlay = run({"hpmm", "regions", "--with-bounds=1"});
  ASSERT_EQ(plain.code, 0);
  ASSERT_EQ(overlay.code, 0);
  // The default map must not change under the flag's default; the overlay
  // announces itself in the legend and upper-cases at least one cell.
  EXPECT_EQ(plain.out.find("UPPERCASE"), std::string::npos);
  EXPECT_NE(overlay.out.find("UPPERCASE"), std::string::npos);
  const auto has_upper_cell = [](const std::string& s) {
    for (const char ch : s) {
      if (ch == 'A' || ch == 'B' || ch == 'C' || ch == 'D' || ch == 'E') {
        return true;
      }
    }
    return false;
  };
  EXPECT_FALSE(has_upper_cell(plain.out.substr(plain.out.find('\n'))));
  EXPECT_TRUE(has_upper_cell(overlay.out.substr(overlay.out.find('\n'))));
  // Same geography: lower-casing the overlay recovers the plain map.
  std::string folded = overlay.out.substr(overlay.out.find('\n'));
  for (char& ch : folded) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  std::string plain_body = plain.out.substr(plain.out.find('\n'));
  for (char& ch : plain_body) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  EXPECT_EQ(folded, plain_body);
}

TEST(Cli, ProfileReconciliationScoresAgainstTheLowerBound) {
  const auto r = run({"hpmm", "profile", "--algorithm=cannon", "--n=64",
                      "--p=64"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("words vs lower bound"), std::string::npos);
  // Cannon moves 64512 words against the 36864-word floor: ratio 1.75.
  EXPECT_NE(r.out.find("1.75"), std::string::npos);
}

TEST(Cli, BoundsHelpAndUsageMentionIt) {
  const auto usage = run({"hpmm"});
  EXPECT_NE(usage.err.find("bounds"), std::string::npos);
  EXPECT_NE(usage.err.find("--with-bounds"), std::string::npos);
}

// ---- goldens: output pinned byte for byte ---------------------------------

std::string golden(const std::string& name) {
  return slurp(std::string(HPMM_SOURCE_DIR) + "/tests/golden/" + name);
}

TEST(CliGolden, List) {
  const auto r = run({"hpmm", "list"});
  EXPECT_EQ(r.code, 0);
  EXPECT_EQ(r.out, golden("list.txt"));
}

TEST(CliGolden, SelectOnTheCm5) {
  const auto r = run({"hpmm", "select", "--n=96", "--p=512", "--machine=cm5"});
  EXPECT_EQ(r.code, 0);
  EXPECT_EQ(r.out, golden("select_cm5.txt"));
}

TEST(CliGolden, Machines) {
  const auto r = run({"hpmm", "machines"});
  EXPECT_EQ(r.code, 0);
  EXPECT_EQ(r.out, golden("machines.txt"));
}

TEST(CliGolden, TraceChrome) {
  // The Chrome export is the timeline view of the span log; every event's
  // order, kind, extent and phase is pinned here.
  const auto r = run({"hpmm", "trace", "--algorithm=gk", "--n=16", "--p=8",
                      "--format=chrome"});
  EXPECT_EQ(r.code, 0);
  EXPECT_EQ(r.out, golden("trace_gk_chrome.json"));
}

TEST(CliGolden, InjectCorruptsThePackedAllToAllPayload) {
  // The simple algorithm gathers rows and columns by recursive doubling,
  // whose later rounds carry several blocks packed into one payload. The
  // corrupted words, and so the product's error, are pinned here.
  const auto r = run({"hpmm", "inject", "--algorithm=simple", "--n=16",
                      "--p=16", "--corrupt=0.2", "--seed=3"});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.out, golden("inject_simple_corrupt.txt"));
}

// ---- hostile input: exit 1 naming the flag, never a crash -----------------

TEST(Cli, OutOfRangeValuesExitOneNamingTheFlag) {
  const std::vector<std::pair<std::vector<const char*>, const char*>> cases = {
      {{"hpmm", "regions", "--pcells=-1"}, "--pcells"},
      {{"hpmm", "trace", "--width=-1"}, "--width"},
      {{"hpmm", "run", "--p=-4"}, "--p"},
      {{"hpmm", "run", "--n=-1"}, "--n"},
      {{"hpmm", "run", "--algorithm=cannon25d", "--c=0"}, "--c"},
      {{"hpmm", "serve", "--threads=0"}, "--threads"},
      {{"hpmm", "inject", "--corrupt=2"}, "--corrupt"},
      {{"hpmm", "inject", "--drop=nan"}, "--drop"},
      {{"hpmm", "list", "--format=csv|json"}, "--format"},
  };
  for (const auto& [argv, flag] : cases) {
    const auto r = run(argv);
    EXPECT_EQ(r.code, 1) << flag;
    EXPECT_NE(r.err.find(flag), std::string::npos) << r.err;
    EXPECT_EQ(r.out, "") << flag;
  }
}

TEST(Cli, MatrixOrderThatWrapsFailsCleanly) {
  // n * n wraps to 0 in 64 bits; this used to segfault.
  const auto r = run({"hpmm", "run", "--algorithm=cannon", "--p=4",
                      "--n=4294967296"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("Matrix"), std::string::npos) << r.err;
}

TEST(Cli, NonFiniteNumberExitsOneNamingTheFlag) {
  // p *= 8 never passes an infinite --pmax.
  const auto r = run({"hpmm", "iso", "--pmax=inf"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--pmax"), std::string::npos) << r.err;
}

TEST(Cli, UndeclaredFlagExitsOneNamingIt) {
  // A typo used to be ignored: this ran the default gk instead.
  const auto r = run({"hpmm", "run", "--algoritm=cannon"});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.out, "");
  EXPECT_NE(r.err.find("--algoritm"), std::string::npos) << r.err;
  EXPECT_EQ(run({"hpmm", "inject", "--c=2"}).code, 1);
  EXPECT_EQ(run({"hpmm", "list", "--n=4"}).code, 1);
}

TEST(Cli, MalformedBooleanExitsOneNamingTheFlag) {
  // --measured=ture used to run the unmeasured table silently.
  const auto r = run({"hpmm", "bounds", "--measured=ture"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--measured"), std::string::npos) << r.err;
  EXPECT_EQ(run({"hpmm", "bounds", "--algo=gk", "--measured=no"}).code, 0);
}

// ---- the flag tables -------------------------------------------------------

TEST(Cli, EveryCommandPrintsItsFlagTableAsHelp) {
  for (const Command& c : commands()) {
    const auto r = run({"hpmm", c.name.c_str(), "--help"});
    EXPECT_EQ(r.code, 0) << c.name;
    for (const Flag& f : c.flags) {
      EXPECT_NE(r.out.find("--" + f.name + "="), std::string::npos)
          << c.name << " --" << f.name;
    }
  }
  const std::string help = run({"hpmm", "run", "--help"}).out;
  EXPECT_NE(help.find("--n=N"), std::string::npos);
  EXPECT_NE(help.find("matrix order (>= 1, default 64)"), std::string::npos);
  EXPECT_NE(help.find("(in [0, 1], default 1)"), std::string::npos);
  EXPECT_NE(help.find("--format=aligned|csv|markdown|json"), std::string::npos);
  EXPECT_NE(help.find("--out=FILE"), std::string::npos);
  EXPECT_NE(help.find("--causal=0|1"), std::string::npos);
}

TEST(Cli, ReadingAFlagAgainstItsTableIsAnInternalError) {
  const CliArgs args = make({"x"});
  const Flags f(args, machine_flags());
  EXPECT_THROW(f.size("undeclared"), InternalError);
  EXPECT_THROW(f.number("threads"), InternalError);  // declared an integer
  EXPECT_EQ(f.size("threads"), 1u);
  const FlagTable no_default = {int_flag("k", "", "no default", 0)};
  EXPECT_THROW(Flags(args, no_default).size("k"), InternalError);
}

TEST(Cli, FlagTablesDeclareEachFlagOnce) {
  for (const Command& c : commands()) {
    std::set<std::string> seen;
    for (const Flag& f : c.flags) {
      EXPECT_TRUE(seen.insert(f.name).second) << c.name << " --" << f.name;
    }
  }
}

/// The flags docs/cli.md's `Flags:` paragraph names, per `## ` section;
/// "machine group" and "output group" stand for those groups' flags.
std::map<std::string, std::set<std::string>> documented_flags() {
  std::ifstream doc(std::string(HPMM_SOURCE_DIR) + "/docs/cli.md");
  std::map<std::string, std::string> text;
  std::string section, line;
  bool in_flags = false;
  while (std::getline(doc, line)) {
    if (line.rfind("## ", 0) == 0) {
      section = std::regex_replace(line, std::regex("^## (`hpmm )?|`$"), "");
    }
    in_flags = !line.empty() && (in_flags || line.rfind("Flags:", 0) == 0);
    if (in_flags) text[section] += " " + line;
  }
  std::map<std::string, std::set<std::string>> out;
  const std::regex name("--([a-z0-9-]+)|(machine|output) group");
  for (const auto& [sec, t] : text) {
    for (std::sregex_iterator it(t.begin(), t.end(), name), end; it != end;
         ++it) {
      if ((*it)[1].matched) out[sec].insert((*it)[1]);
      if (!(*it)[2].matched) continue;
      for (const Flag& f :
           (*it)[2] == "machine" ? machine_flags() : output_flags()) {
        out[sec].insert(f.name);
      }
    }
  }
  return out;
}

std::set<std::string> names_of(const FlagTable& table) {
  std::set<std::string> out;
  for (const Flag& f : table) out.insert(f.name);
  return out;
}

TEST(Cli, DocsListExactlyTheDeclaredFlags) {
  const auto documented = documented_flags();
  EXPECT_EQ(documented.at("Machine group"), names_of(machine_flags()));
  EXPECT_EQ(documented.at("Output group"), names_of(output_flags()));
  for (const Command& c : commands()) {
    ASSERT_TRUE(documented.count(c.name)) << "docs/cli.md lacks " << c.name;
    EXPECT_EQ(documented.at(c.name), names_of(c.flags)) << c.name;
  }
}

}  // namespace
}  // namespace hpmm::tools
