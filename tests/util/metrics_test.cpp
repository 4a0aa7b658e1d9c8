#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace hpmm {
namespace {

TEST(Counter, AccumulatesAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, KeepsLastSample) {
  Gauge g;
  g.set(1.5);
  g.set(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), -3.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketsByUpperBound) {
  Histogram h({1.0, 4.0, 16.0});
  ASSERT_EQ(h.buckets(), 4u);  // three bounds + overflow
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // <= 1 (inclusive)
  h.observe(2.0);   // <= 4
  h.observe(100.0); // overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 103.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 103.5 / 4.0);
  EXPECT_TRUE(std::isinf(h.bucket_bound(3)));
}

TEST(Histogram, ResetKeepsBuckets) {
  Histogram h({2.0});
  h.observe(1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.buckets(), 2u);
}

TEST(Histogram, ValidatesBounds) {
  EXPECT_THROW(Histogram(std::vector<double>{}), PreconditionError);
  EXPECT_THROW(Histogram({2.0, 1.0}), PreconditionError);
  EXPECT_THROW(Histogram({1.0, 1.0}), PreconditionError);
}

TEST(Histogram, Pow2Bounds) {
  const auto bounds = Histogram::pow2_bounds(4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

TEST(TrafficMatrix, AccumulatesPerLink) {
  TrafficMatrix t(4);
  t.add(0, 1, 10);
  t.add(0, 1, 5);
  t.add(2, 3, 100);
  EXPECT_EQ(t.words(0, 1), 15u);
  EXPECT_EQ(t.words(1, 0), 0u);
  EXPECT_EQ(t.total_words(), 115u);
  EXPECT_EQ(t.links_used(), 2u);
  const auto busiest = t.busiest();
  EXPECT_EQ(busiest.src, 2u);
  EXPECT_EQ(busiest.dst, 3u);
  EXPECT_EQ(busiest.words, 100u);
}

TEST(TrafficMatrix, BusiestPrefersLowestPairOnTies) {
  TrafficMatrix t(4);
  t.add(3, 2, 7);
  t.add(0, 1, 7);
  EXPECT_EQ(t.busiest().src, 0u);
  EXPECT_EQ(t.busiest().dst, 1u);
}

TEST(TrafficMatrix, DenseExport) {
  TrafficMatrix t(2);
  t.add(1, 0, 9);
  const auto d = t.dense();
  ASSERT_EQ(d.size(), 4u);
  EXPECT_EQ(d[1 * 2 + 0], 9u);
  EXPECT_EQ(d[0], 0u);
}

TEST(TrafficMatrix, ValidatesRange) {
  TrafficMatrix t(2);
  EXPECT_THROW(t.add(2, 0, 1), PreconditionError);
  EXPECT_THROW(t.words(0, 5), PreconditionError);
}

TEST(TrafficMatrix, HoldsNoCellsUntilTrafficIsRecorded) {
  TrafficMatrix t(64);
  t.add(3, 4, 0);  // zero-word adds are not recorded
  EXPECT_EQ(t.bytes(), 0u);
  EXPECT_EQ(t.words(3, 4), 0u);
  EXPECT_EQ(t.links_used(), 0u);
  EXPECT_EQ(t.busiest().words, 0u);
  EXPECT_EQ(t.dense(), std::vector<std::uint64_t>(64 * 64, 0));
  t.add(3, 4, 2);
  EXPECT_GT(t.bytes(), 0u);
  EXPECT_EQ(t.words(3, 4), 2u);
}

TEST(TrafficMatrix, RejectsProcessorCountsPastTheKeyWidth) {
  // Pairs are keyed as (src << 32) | dst: past 2^32 processors, 1 -> 0 and
  // 0 -> 2^32 would share a key.
  EXPECT_NO_THROW(TrafficMatrix(std::size_t{1} << 32));
  for (const std::size_t procs :
       {(std::size_t{1} << 32) + 1, std::size_t{1} << 33}) {
    try {
      TrafficMatrix t(procs);
      ADD_FAILURE() << "accepted " << procs << " processors";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("TrafficMatrix"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TrafficMatrix, DenseRejectsAnUnaddressableSquare) {
  // At 2^32 processors p * p wraps to 0 in 64 bits; at 2^31 it fits in 64
  // bits but exceeds any vector. The sparse table itself stays usable.
  for (const std::size_t procs : {std::size_t{1} << 32, std::size_t{1} << 31}) {
    TrafficMatrix t(procs);
    t.add(procs - 1, 0, 5);
    EXPECT_EQ(t.words(procs - 1, 0), 5u);
    EXPECT_EQ(t.words(0, procs - 1), 0u);
    try {
      (void)t.dense();
      ADD_FAILURE() << "dense() accepted p = " << procs;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("TrafficMatrix::dense"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TrafficMatrix, MatchesAnOrderedMapThroughRehashes) {
  // A seeded add() sequence over 64 processors: thousands of distinct
  // pairs (the table doubles from 16 to 8192 cells), half the adds aimed
  // at nine hot pairs among pids 1..3, and some zero-word adds, which are
  // not recorded.
  constexpr std::size_t kProcs = 64;
  using Pair = std::pair<std::size_t, std::size_t>;
  TrafficMatrix t(kProcs);
  std::map<Pair, std::uint64_t> ref;
  std::uint64_t ref_total = 0;
  Rng rng(20261017);
  const auto add = [&](std::size_t src, std::size_t dst, std::uint64_t w) {
    t.add(src, dst, w);
    if (w > 0) ref[{src, dst}] += w;
    ref_total += w;
  };
  const auto check = [&] {
    ASSERT_EQ(t.links_used(), ref.size());
    ASSERT_EQ(t.total_words(), ref_total);
    const auto dense = t.dense();
    ASSERT_EQ(dense.size(), kProcs * kProcs);
    for (std::size_t src = 0; src < kProcs; ++src) {
      for (std::size_t dst = 0; dst < kProcs; ++dst) {
        const auto it = ref.find({src, dst});
        const std::uint64_t want = it == ref.end() ? 0 : it->second;
        ASSERT_EQ(t.words(src, dst), want) << src << " -> " << dst;
        ASSERT_EQ(dense[src * kProcs + dst], want) << src << " -> " << dst;
      }
    }
    // The map iterates pairs in ascending order: the first maximum is the
    // lowest pair among the heaviest.
    Pair best{0, 0};
    std::uint64_t best_words = 0;
    for (const auto& [pair, words] : ref) {
      if (words > best_words) {
        best = pair;
        best_words = words;
      }
    }
    const auto got = t.busiest();
    ASSERT_EQ(got.words, best_words);
    ASSERT_EQ(Pair(got.src, got.dst), best);
  };
  for (int i = 0; i < 20000; ++i) {
    const bool hot = rng.next_below(2) == 0;
    const std::size_t src =
        hot ? 1 + rng.next_below(3) : rng.next_below(kProcs);
    const std::size_t dst =
        hot ? 1 + rng.next_below(3) : rng.next_below(kProcs);
    add(src, dst, rng.next_below(4));
    if (i % 2500 == 0) check();
  }
  check();
  ASSERT_GT(t.links_used(), 2048u);  // past the 4096-cell table
  // Ties: a pair above the busiest one ties it and changes nothing; a pair
  // below it ties it and wins.
  const auto busiest = t.busiest();
  ASSERT_GT(busiest.src + busiest.dst, 0u);
  ASSERT_LT(busiest.src + busiest.dst, 2 * (kProcs - 1));
  add(kProcs - 1, kProcs - 1,
      busiest.words - t.words(kProcs - 1, kProcs - 1));
  check();
  EXPECT_EQ(t.busiest().src, busiest.src);
  add(0, 0, busiest.words - t.words(0, 0));
  check();
  EXPECT_EQ(t.busiest().src, 0u);
  EXPECT_EQ(t.busiest().dst, 0u);
}

TEST(MetricsRegistry, FetchOrCreateByName) {
  MetricsRegistry reg;
  reg.counter("a").add(3);
  reg.counter("a").add(1);  // same instrument
  EXPECT_EQ(reg.counter("a").value(), 4u);
  EXPECT_EQ(reg.find_counter("a")->value(), 4u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  reg.gauge("g").set(2.5);
  EXPECT_DOUBLE_EQ(reg.find_gauge("g")->value(), 2.5);
  reg.histogram("h", {1.0, 2.0}).observe(1.5);
  EXPECT_EQ(reg.find_histogram("h")->count(), 1u);
}

TEST(MetricsRegistry, NamesAreSorted) {
  MetricsRegistry reg;
  reg.counter("z");
  reg.counter("a");
  const auto names = reg.counter_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "z");
}

TEST(MetricsRegistry, ResetZeroesEverything) {
  MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(1.0);
  reg.histogram("h", {1.0}).observe(0.5);
  reg.reset();
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
  EXPECT_EQ(reg.find_histogram("h")->count(), 0u);
  EXPECT_EQ(reg.find_histogram("h")->buckets(), 2u);  // registration kept
}

TEST(Histogram, QuantileEmptyIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(Histogram, QuantileValidatesRange) {
  Histogram h({1.0});
  EXPECT_THROW(h.quantile(-0.01), PreconditionError);
  EXPECT_THROW(h.quantile(1.01), PreconditionError);
}

TEST(Histogram, QuantileOverflowInterpolatesToMax) {
  Histogram h({1.0, 2.0});
  h.observe(10.0);
  h.observe(50.0);
  h.observe(30.0);
  // All three samples land in the overflow bucket. A rank there used to
  // collapse every quantile to the single largest sample; it now walks
  // (bounds.back(), max] linearly: rank ceil(0.5 * 3) = 2 of 3 gives
  // 2 + (50 - 2) * 2/3 = 34, and rank 3 reaches max exactly.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 34.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 50.0);
}

TEST(Histogram, QuantileP99BeyondLastBucketEdge) {
  // Regression: 99 samples inside the buckets and one far outside. The p99
  // lands on the last in-bounds sample; the p100 must report the true max,
  // and quantiles between them interpolate instead of jumping to max.
  Histogram h({10.0, 20.0});
  for (int i = 0; i < 99; ++i) h.observe(15.0);
  h.observe(5000.0);
  EXPECT_LE(h.quantile(0.99), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5000.0);
  const double p995 = h.quantile(0.995);
  EXPECT_GT(p995, 20.0);
  EXPECT_LE(p995, 5000.0);
}

TEST(Histogram, QuantileOverflowMaxAtBoundIsDefensive) {
  // max <= bounds.back() can only happen when every sample sits exactly on
  // the top bound; an overflow rank is then impossible, but the guard keeps
  // the estimate finite if it ever were.
  Histogram h({1.0, 50.0});
  h.observe(50.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 50.0);
}

TEST(Histogram, QuantileBucketlessHistogramReportsMax) {
  // A default-constructed histogram has only the implicit overflow bucket
  // and no finite bound to interpolate from: every quantile of a non-empty
  // distribution must return the exactly-tracked max, never divide by an
  // empty bounds vector or read bounds_.back() of an empty vector.
  Histogram h;
  ASSERT_EQ(h.buckets(), 1u);
  h.observe(3.0);
  h.observe(7.0);
  h.observe(11.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 11.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 11.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 11.0);
}

TEST(Histogram, QuantileCrossesTheOverflowSeamExactly) {
  // Two samples inside the single finite bucket, two in overflow. The rank
  // walk must hand over from the bucketed interpolation to the overflow
  // interpolation without a gap: rank 2 tops out the finite bucket at its
  // bound, rank 3 is the first overflow step half-way to max, rank 4 is max.
  Histogram h({10.0});
  h.observe(5.0);
  h.observe(5.0);
  h.observe(100.0);
  h.observe(200.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);    // rank 2: bucket upper bound
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 105.0);  // rank 3: 10 + (200-10)/2
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 200.0);   // rank 4: exact max
}

TEST(Histogram, QuantileIsMonotoneAcrossTheOverflowSeam) {
  // Property regression: for a mixed in-bounds/overflow distribution the
  // estimate must be non-decreasing in q — the overflow interpolation must
  // start above the last finite bound, not below it.
  Histogram h(Histogram::pow2_bounds(5));  // bounds 1, 2, 4, 8, 16
  for (const double v : {0.5, 1.5, 3.0, 6.0, 12.0, 20.0, 40.0, 80.0}) {
    h.observe(v);
  }
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double est = h.quantile(q);
    EXPECT_GE(est, prev) << "q=" << q;
    EXPECT_LE(est, h.max()) << "q=" << q;
    prev = est;
  }
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 80.0);
}

TEST(Histogram, QuantileSingleBucketInterpolates) {
  Histogram h({8.0});
  for (int i = 0; i < 4; ++i) h.observe(6.0);
  // Four samples in [0, 8]: the q-th estimate walks the bucket linearly —
  // rank ceil(0.5 * 4) = 2 of 4 lands at 8 * (2/4) = 4, capped by max 6.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 6.0);  // capped at the recorded max
}

TEST(Histogram, QuantileInterpolatesBetweenBounds) {
  Histogram h({10.0, 20.0, 40.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);    // bucket [0, 10]
  for (int i = 0; i < 10; ++i) h.observe(15.0);   // bucket (10, 20]
  // Rank ceil(0.75 * 20) = 15: the 5th of 10 samples in (10, 20] -> 15.
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 15.0);
  // Rank 10 is the last sample of the first bucket -> its upper bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  // q = 0 floors the rank at 1: first sample of the first bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
}

TEST(Histogram, QuantileMonotoneInQ) {
  Histogram h(Histogram::pow2_bounds(16));
  Rng rng(7);
  for (int i = 0; i < 500; ++i) h.observe(rng.uniform(0.0, 40000.0));
  double prev = 0.0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    EXPECT_LE(v, h.max());
    prev = v;
  }
}

TEST(MetricsRegistry, WriteJsonIncludesQuantiles) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {1.0, 2.0, 4.0});
  h.observe(3.0);
  std::ostringstream os;
  reg.write_json(os);
  const std::string out = os.str();
  EXPECT_TRUE(json_valid(out)) << out;
  EXPECT_NE(out.find("\"p50\":"), std::string::npos);
  EXPECT_NE(out.find("\"p95\":"), std::string::npos);
  EXPECT_NE(out.find("\"p99\":"), std::string::npos);
}

TEST(MetricsRegistry, WriteJsonIsValidAndComplete) {
  MetricsRegistry reg;
  reg.counter("msgs").add(7);
  reg.gauge("load").set(0.25);
  reg.histogram("size \"quoted\"", {1.0, 8.0}).observe(3.0);
  std::ostringstream os;
  reg.write_json(os);
  const std::string out = os.str();
  EXPECT_TRUE(json_valid(out)) << out;
  EXPECT_NE(out.find("\"msgs\":7"), std::string::npos);
  EXPECT_NE(out.find("\"load\":0.25"), std::string::npos);
  EXPECT_NE(out.find("\"le\":\"inf\""), std::string::npos);
}

TEST(Histogram, QuantileSingleSample) {
  // One observation: every quantile resolves to (at most) that value.
  Histogram h({1.0, 2.0, 4.0});
  h.observe(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
}

TEST(Histogram, QuantileAllSamplesInOneBucket) {
  // Ten identical samples in the (2, 4] bucket: interpolation through the
  // bucket is capped by the recorded max, so p50/p95/p99 agree.
  Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) h.observe(2.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 2.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.5);
  EXPECT_EQ(h.count(), 10u);
}

TEST(Histogram, MaxTracksAllNegativeSamples) {
  // The running max must seed from the first sample, not from 0.0 —
  // otherwise an all-negative distribution reports max() == 0.
  Histogram h({1.0});
  h.observe(-5.0);
  h.observe(-2.0);
  EXPECT_DOUBLE_EQ(h.max(), -2.0);
  // Quantiles stay clamped to the true max, never above it.
  EXPECT_LE(h.quantile(0.5), -2.0);
  EXPECT_LE(h.quantile(0.99), -2.0);
}

TEST(MetricsRegistry, WriteJsonAlwaysValidOnEdgeCaseHistograms) {
  MetricsRegistry reg;
  reg.histogram("empty", {1.0, 2.0});              // no samples at all
  reg.histogram("negative", {1.0}).observe(-3.0);  // all-negative
  Histogram& single = reg.histogram("single", {8.0});
  single.observe(6.0);
  std::ostringstream os;
  reg.write_json(os);
  const std::string out = os.str();
  EXPECT_TRUE(json_valid(out)) << out;
  // No bare NaN/inf tokens may leak into the numeric fields.
  EXPECT_EQ(out.find(":nan"), std::string::npos) << out;
  EXPECT_EQ(out.find(": nan"), std::string::npos) << out;
  EXPECT_EQ(out.find(":-nan"), std::string::npos) << out;
}

TEST(TimeSeries, ObservationsLandInFloorWindow) {
  TimeSeries s(100.0);
  s.observe(0.0, 1.0);
  s.observe(99.9, 2.0);
  s.observe(100.0, 4.0);  // exactly on the edge -> next window
  s.observe(250.0, 8.0);
  ASSERT_EQ(s.windows().size(), 3u);
  const TimeSeries::Window* w0 = s.find(0);
  ASSERT_NE(w0, nullptr);
  EXPECT_EQ(w0->count, 2u);
  EXPECT_DOUBLE_EQ(w0->sum, 3.0);
  EXPECT_DOUBLE_EQ(w0->max, 2.0);
  EXPECT_EQ(s.find(1)->count, 1u);
  EXPECT_EQ(s.find(2)->count, 1u);
  EXPECT_EQ(s.find(3), nullptr);
  EXPECT_EQ(s.total_count(), 4u);
  EXPECT_DOUBLE_EQ(s.total_sum(), 15.0);
}

TEST(TimeSeries, NegativeTimesAndValues) {
  TimeSeries s(10.0);
  s.observe(-5.0, -3.0);  // floor(-0.5) = -1
  ASSERT_NE(s.find(-1), nullptr);
  EXPECT_DOUBLE_EQ(s.find(-1)->max, -3.0);  // max seeds from first sample
}

TEST(TimeSeries, PerWindowQuantilesWithHistograms) {
  TimeSeries s(100.0, {8.0, 64.0});
  for (int i = 0; i < 10; ++i) s.observe(50.0, 4.0);
  s.observe(150.0, 100.0);
  ASSERT_TRUE(s.has_histograms());
  EXPECT_DOUBLE_EQ(s.find(0)->hist.quantile(0.99), 4.0);  // capped at max
  EXPECT_DOUBLE_EQ(s.find(1)->hist.max(), 100.0);
  std::ostringstream os;
  s.write_json(os);
  EXPECT_TRUE(json_valid(os.str())) << os.str();
  EXPECT_NE(os.str().find("\"p99\""), std::string::npos);
}

TEST(TimeSeries, ValidatesConstruction) {
  EXPECT_THROW(TimeSeries(0.0), PreconditionError);
  EXPECT_THROW(TimeSeries(-1.0), PreconditionError);
  EXPECT_THROW(TimeSeries(10.0, {2.0, 1.0}), PreconditionError);
}

TEST(MetricsRegistry, SeriesFetchOrCreateAndJsonSection) {
  MetricsRegistry reg;
  reg.counter("c").add(1);
  // No series registered: no "series" section (byte-stability of the
  // pre-existing exports).
  std::ostringstream before;
  reg.write_json(before);
  EXPECT_EQ(before.str().find("\"series\""), std::string::npos);

  reg.series("s", 100.0).observe(10.0, 1.0);
  reg.series("s", 999.0).observe(20.0, 2.0);  // same instrument; width kept
  const TimeSeries* s = reg.find_series("s");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->window_width(), 100.0);
  EXPECT_EQ(s->total_count(), 2u);
  EXPECT_EQ(reg.find_series("missing"), nullptr);
  ASSERT_EQ(reg.series_names().size(), 1u);
  EXPECT_EQ(reg.series_names()[0], "s");

  std::ostringstream after;
  reg.write_json(after);
  EXPECT_TRUE(json_valid(after.str())) << after.str();
  EXPECT_NE(after.str().find("\"series\""), std::string::npos);
  EXPECT_NE(after.str().find("\"window_width\":100"), std::string::npos);

  reg.reset();
  EXPECT_TRUE(reg.find_series("s")->empty());  // registration kept
}

}  // namespace
}  // namespace hpmm
