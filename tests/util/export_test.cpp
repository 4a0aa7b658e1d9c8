// Metrics export layer (util/export.hpp): extension routing, Prometheus
// text-exposition validity (name charset, HELP/TYPE pairs, cumulative
// buckets), OTLP-style JSON validity, and byte-for-byte determinism.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"
#include "util/error.hpp"
#include "util/export.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace hpmm {
namespace {

MetricsRegistry sample_registry() {
  MetricsRegistry r;
  r.counter("sim.messages").add(120);
  r.counter("serve.cache.hits").add(3);
  r.gauge("engine.arena.bytes").set(39088.0);
  r.gauge("engine.events.virtual_rate").set(0.1);
  Histogram& h = r.histogram("serve.latency.t0", {10.0, 100.0, 1000.0});
  h.observe(5.0);
  h.observe(50.0);
  h.observe(5000.0);  // overflow bucket
  TimeSeries& s = r.series("serve.series.t0.ok", 100.0);
  s.observe(10.0, 1.0);
  s.observe(250.0, 1.0);
  return r;
}

std::string prom(const MetricsRegistry& r) {
  std::ostringstream os;
  write_prometheus(r, os);
  return os.str();
}

std::string otlp(const MetricsRegistry& r) {
  std::ostringstream os;
  write_otlp_json(r, os);
  return os.str();
}

// ----- format routing -------------------------------------------------------

TEST(MetricsExport, FormatRoutesOnExtension) {
  EXPECT_EQ(metrics_export_format("out/metrics.prom"),
            MetricsExportFormat::kPrometheus);
  EXPECT_EQ(metrics_export_format("snap.json"), MetricsExportFormat::kOtlpJson);
  EXPECT_THROW((void)metrics_export_format("metrics.txt"), PreconditionError);
  EXPECT_THROW((void)metrics_export_format("noextension"), PreconditionError);
}

TEST(MetricsExport, MetricNamesAreSanitizedIntoTheExpositionCharset) {
  EXPECT_EQ(prometheus_metric_name("serve.cache.hits"),
            "hpmm_serve_cache_hits");
  EXPECT_EQ(prometheus_metric_name("engine.events.virtual_rate"),
            "hpmm_engine_events_virtual_rate");
  EXPECT_EQ(prometheus_metric_name("weird-name with spaces"),
            "hpmm_weird_name_with_spaces");
  EXPECT_EQ(prometheus_metric_name("ok:colons_kept"), "hpmm_ok:colons_kept");
}

// ----- Prometheus text exposition -------------------------------------------

TEST(MetricsExport, PrometheusEmitsHelpTypePairsForEveryFamily) {
  const std::string text = prom(sample_registry());
  std::istringstream in(text);
  std::string line;
  std::string pending_help;  // family name from the last # HELP
  std::string pending_type;  // family name from the last # TYPE
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "exposition must not contain blank lines";
    if (line.rfind("# HELP ", 0) == 0) {
      pending_help = line.substr(7, line.find(' ', 7) - 7);
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      pending_type = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_EQ(pending_type, pending_help)
          << "# TYPE must directly follow its # HELP";
      continue;
    }
    // A sample line: name must extend the family announced by # TYPE
    // (suffixes like _bucket/_sum/_count), and its charset must be legal.
    const std::string name = line.substr(0, line.find_first_of(" {"));
    EXPECT_EQ(name.rfind(pending_type, 0), 0u)
        << "sample '" << name << "' outside family '" << pending_type << "'";
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      EXPECT_TRUE(ok) << "illegal character '" << c << "' in " << name;
    }
  }
  EXPECT_NE(text.find("hpmm_sim_messages_total 120"), std::string::npos);
  EXPECT_NE(text.find("hpmm_engine_arena_bytes 39088"), std::string::npos);
}

TEST(MetricsExport, PrometheusCarriesTheReportsOwnArenaBytes) {
  // The engine.* gauges of a real report render the report's own telemetry
  // (the figure itself moves with the engine's layout, so it is not pinned).
  SimMachine m(std::make_shared<Hypercube>(2u), MachineParams{});
  m.compute(0, 5.0);
  const RunReport r = m.report("probe", 2, 8.0);
  ASSERT_GT(r.engine.arena_bytes, 0u);
  EXPECT_NE(prom(r.metrics).find("hpmm_engine_arena_bytes " +
                                 std::to_string(r.engine.arena_bytes) + "\n"),
            std::string::npos);
}

TEST(MetricsExport, PrometheusHistogramBucketsAreCumulativeWithInf) {
  const std::string text = prom(sample_registry());
  // Three observations: 5 -> le 10, 50 -> le 100, 5000 -> overflow. The
  // cumulative rows must therefore read 1, 2, 2, and +Inf carries all 3.
  EXPECT_NE(text.find("hpmm_serve_latency_t0_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("hpmm_serve_latency_t0_bucket{le=\"100\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("hpmm_serve_latency_t0_bucket{le=\"1000\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("hpmm_serve_latency_t0_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("hpmm_serve_latency_t0_count 3"), std::string::npos);
  EXPECT_NE(text.find("hpmm_serve_latency_t0_sum 5055"), std::string::npos);
}

TEST(MetricsExport, PrometheusSeriesRenderAsRunningTotals) {
  const std::string text = prom(sample_registry());
  EXPECT_NE(text.find("hpmm_serve_series_t0_ok_events_total 2"),
            std::string::npos);
  EXPECT_NE(text.find("hpmm_serve_series_t0_ok_value_sum 2"),
            std::string::npos);
}

TEST(MetricsExport, OutputIsDeterministicAndSorted) {
  const MetricsRegistry r = sample_registry();
  EXPECT_EQ(prom(r), prom(r));
  EXPECT_EQ(otlp(r), otlp(r));
  // Counters render in sorted name order regardless of creation order.
  MetricsRegistry reversed;
  reversed.counter("zzz.last").add(1);
  reversed.counter("aaa.first").add(1);
  const std::string text = prom(reversed);
  EXPECT_LT(text.find("hpmm_aaa_first_total"), text.find("hpmm_zzz_last_total"));
}

// ----- OTLP-style JSON ------------------------------------------------------

TEST(MetricsExport, OtlpJsonIsValidAndCarriesEveryInstrument) {
  const std::string text = otlp(sample_registry());
  EXPECT_TRUE(json_valid(text)) << text;
  EXPECT_NE(text.find("\"resourceMetrics\""), std::string::npos);
  EXPECT_NE(text.find("\"sim.messages\""), std::string::npos);
  EXPECT_NE(text.find("\"isMonotonic\": true"), std::string::npos);
  EXPECT_NE(text.find("\"engine.arena.bytes\""), std::string::npos);
  EXPECT_NE(text.find("\"serve.latency.t0\""), std::string::npos);
  EXPECT_NE(text.find("\"bucketCounts\""), std::string::npos);
  EXPECT_NE(text.find("\"serve.series.t0.ok\""), std::string::npos);
  EXPECT_NE(text.find("\"windowWidth\": 100"), std::string::npos);
}

TEST(MetricsExport, EmptyRegistryRendersCleanly) {
  const MetricsRegistry empty;
  EXPECT_EQ(prom(empty), "");
  EXPECT_TRUE(json_valid(otlp(empty)));
}

TEST(MetricsExport, WriteMetricsDispatchesOnFormat) {
  const MetricsRegistry r = sample_registry();
  std::ostringstream p, j;
  write_metrics(r, MetricsExportFormat::kPrometheus, p);
  write_metrics(r, MetricsExportFormat::kOtlpJson, j);
  EXPECT_EQ(p.str(), prom(r));
  EXPECT_EQ(j.str(), otlp(r));
}

}  // namespace
}  // namespace hpmm
