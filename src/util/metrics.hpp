#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace hpmm {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written sample of an instantaneous quantity.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  double value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: bucket i counts samples v <= bounds[i]
/// (cumulative-style upper bounds, ascending); one implicit overflow bucket
/// catches everything above the last bound. Tracks count and sum so the
/// mean survives bucketing.
class Histogram {
 public:
  Histogram() = default;
  /// `upper_bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  /// Number of buckets including the overflow bucket (bounds + 1).
  std::size_t buckets() const noexcept { return counts_.size(); }
  /// Inclusive upper bound of bucket i; infinity for the overflow bucket.
  double bucket_bound(std::size_t i) const;
  std::uint64_t bucket_count(std::size_t i) const;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  /// Largest observed sample (exact, not bucketed); 0 before any
  /// observation. Correct for all-negative distributions too.
  double max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Bucket-interpolated quantile estimate for q in [0, 1]: find the bucket
  /// holding the q-th ranked sample and interpolate linearly between its
  /// bounds (the first bucket interpolates up from min(0, its bound)).
  /// Ranks that land in the overflow bucket — samples above the last finite
  /// bound — interpolate between that bound and max(), the one order
  /// statistic tracked exactly (so a p99 past the top edge no longer
  /// collapses to the single largest sample); every estimate is capped at
  /// max(). An empty histogram returns 0. Throws PreconditionError for q
  /// outside [0, 1].
  double quantile(double q) const;

  void reset() noexcept;

  /// Power-of-two upper bounds 1, 2, 4, ..., 2^(n-1) — the usual choice for
  /// message-size and latency distributions.
  static std::vector<double> pow2_bounds(unsigned n);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_{0};  // bounds_.size() + 1 entries
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width virtual-time windowed accumulator: every observation lands
/// in window floor(time / width), and windows are stored sparsely, so an
/// arbitrarily long virtual timeline costs memory only where something
/// happened. Each window tracks count, sum and max of the observed values;
/// when histogram bounds are supplied at construction, each window also
/// carries a fixed-bucket Histogram so per-window quantiles (e.g. latency
/// p99 over time) survive aggregation. The serve-mode per-tenant time
/// series (DESIGN.md §13) are built from these.
class TimeSeries {
 public:
  TimeSeries() = default;
  /// `window_width` must be positive. A non-empty `hist_bounds` (strictly
  /// ascending) attaches a per-window histogram.
  explicit TimeSeries(double window_width,
                      std::vector<double> hist_bounds = {});

  void observe(double time, double value);

  double window_width() const noexcept { return width_; }
  bool empty() const noexcept { return windows_.empty(); }
  bool has_histograms() const noexcept { return !hist_bounds_.empty(); }

  struct Window {
    std::int64_t index = 0;   ///< floor(time / window_width)
    std::uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    Histogram hist;  ///< per-window samples; default-empty without bounds
  };

  /// Sparse, index-sorted windows.
  const std::map<std::int64_t, Window>& windows() const noexcept {
    return windows_;
  }
  /// The window containing `index`, or null if nothing landed there.
  const Window* find(std::int64_t index) const;

  /// Sum of counts over every window.
  std::uint64_t total_count() const noexcept;
  /// Sum of sums over every window.
  double total_sum() const noexcept;

  void reset() noexcept { windows_.clear(); }

  /// {"window_width": W, "windows": [{"index", "start", "count", "sum",
  /// "max"[, "p50", "p95", "p99"]}]} — quantiles only with histograms.
  void write_json(std::ostream& os) const;

 private:
  double width_ = 0.0;
  std::vector<double> hist_bounds_;
  std::map<std::int64_t, Window> windows_;
};

/// Words transferred per directed (src, dst) processor pair. Stored sparsely
/// (algorithms touch O(p log p) of the p^2 links) in one open-addressing
/// table, with a dense row-major export for tooling.
class TrafficMatrix {
 public:
  /// At most 2^32 processors: a pair is keyed as (src << 32) | dst.
  explicit TrafficMatrix(std::size_t procs = 0);

  /// Zero-word messages are not recorded.
  void add(std::size_t src, std::size_t dst, std::uint64_t words);
  std::uint64_t words(std::size_t src, std::size_t dst) const;

  std::size_t procs() const noexcept { return procs_; }
  std::uint64_t total_words() const noexcept { return total_; }
  /// Number of directed pairs with nonzero traffic.
  std::size_t links_used() const noexcept { return used_; }

  struct Link {
    std::size_t src = 0;
    std::size_t dst = 0;
    std::uint64_t words = 0;
  };
  /// The heaviest directed link (lowest (src, dst) on ties; zero Link when
  /// no traffic was recorded).
  Link busiest() const;

  /// Dense p x p row-major copy — O(p^2) memory, intended for export only.
  /// Throws PreconditionError when p^2 cells exceed the addressable size.
  std::vector<std::uint64_t> dense() const;

  /// Bytes held by the table.
  std::uint64_t bytes() const noexcept {
    return static_cast<std::uint64_t>(cells_.capacity()) * sizeof(Cell);
  }

 private:
  /// One table slot; words == 0 marks it empty, since add() never records
  /// a zero-word message.
  struct Cell {
    std::uint64_t key = 0;
    std::uint64_t words = 0;
  };
  /// Index of the cell holding `key`, or of the empty cell where it would
  /// go (linear probing from a multiplicative hash).
  std::size_t slot(std::uint64_t key) const noexcept;
  /// Size the empty table to 16 cells, or double it and reinsert every
  /// pair.
  void grow();

  std::size_t procs_ = 0;
  /// Power-of-two size, empty until the first add() and 16 from there; at
  /// most half full.
  std::vector<Cell> cells_;
  unsigned shift_ = 0;  ///< 64 - log2(cells_.size()), once cells_ is sized
  std::size_t used_ = 0;
  std::uint64_t total_ = 0;
};

/// Name-addressed bag of counters, gauges and histograms. Instruments fetch
/// their metric once by name (creating it on first use) and update it
/// directly; readers enumerate by sorted name or export everything as JSON.
/// Looking up an existing metric allocates nothing: names are compared as
/// string views, and a name is copied only when its metric is created.
class MetricsRegistry {
 public:
  /// Fetch-or-create. References stay valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_bounds` applies on first creation only (non-empty, ascending).
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds);
  /// `window_width` and `hist_bounds` apply on first creation only.
  TimeSeries& series(std::string_view name, double window_width,
                     std::vector<double> hist_bounds = {});

  /// Lookup without creating; null when absent.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;
  const TimeSeries* find_series(std::string_view name) const;

  std::vector<std::string> counter_names() const;
  std::vector<std::string> gauge_names() const;
  std::vector<std::string> histogram_names() const;
  std::vector<std::string> series_names() const;

  /// Zero every metric, keeping registrations (and histogram buckets).
  void reset() noexcept;

  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, mean, max, p50, p95, p99,
  /// buckets: [...]}}, "series": {name: {window_width, windows: [...]}}}.
  /// The "series" section appears only when at least one TimeSeries is
  /// registered, keeping pre-existing exports byte-stable.
  void write_json(std::ostream& os) const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, TimeSeries, std::less<>> series_;
};

}  // namespace hpmm
