#include "util/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "util/error.hpp"
#include "util/json.hpp"

namespace hpmm {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  require(!bounds_.empty(), "Histogram: need at least one bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    require(bounds_[i] > bounds_[i - 1],
            "Histogram: bucket bounds must be strictly ascending");
  }
  // A fresh vector rather than assign(): GCC 12's -Warray-bounds misreads
  // assign() over the one-element default once require()'s failure path is
  // [[noreturn]].
  counts_ = std::vector<std::uint64_t>(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
  // Seed from the first sample so all-negative distributions report their
  // true maximum (a 0.0-initialised running max would win otherwise).
  max_ = count_ == 1 ? v : std::max(max_, v);
}

double Histogram::bucket_bound(std::size_t i) const {
  require(i < counts_.size(), "Histogram::bucket_bound: index out of range");
  return i < bounds_.size() ? bounds_[i]
                            : std::numeric_limits<double>::infinity();
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  require(i < counts_.size(), "Histogram::bucket_count: index out of range");
  return counts_[i];
}

double Histogram::quantile(double q) const {
  require(q >= 0.0 && q <= 1.0, "Histogram::quantile: q must be in [0, 1]");
  if (count_ == 0) return 0.0;
  // Rank of the target sample, 1-based: ceil(q * count), floored at 1 so
  // q = 0 resolves to the smallest recorded sample's bucket.
  const double target =
      std::max(1.0, std::ceil(q * static_cast<double>(count_)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const auto below = static_cast<double>(cumulative);
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) < target) continue;
    if (i >= bounds_.size()) {
      // Overflow bucket: no finite upper bound. Interpolate between the top
      // finite bound and the exactly-tracked max, so a rank landing here
      // yields an estimate in (bounds.back(), max] instead of collapsing
      // every overflow quantile to the single largest sample.
      if (bounds_.empty()) return max_;
      const double lo = bounds_.back();
      if (max_ <= lo) return max_;  // defensive: max never entered overflow
      const double within =
          (target - below) / static_cast<double>(counts_[i]);  // (0, 1]
      return lo + (max_ - lo) * within;
    }
    const double hi = bounds_[i];
    const double lo = i == 0 ? std::min(0.0, hi) : bounds_[i - 1];
    const double within =
        (target - below) / static_cast<double>(counts_[i]);  // (0, 1]
    return std::min(max_, lo + (hi - lo) * within);
  }
  return max_;  // unreachable: cumulative reaches count_
}

void Histogram::reset() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  max_ = 0.0;
}

std::vector<double> Histogram::pow2_bounds(unsigned n) {
  require(n >= 1, "Histogram::pow2_bounds: need at least one bucket");
  require(n <= 63, "Histogram::pow2_bounds: too many buckets");
  std::vector<double> bounds(n);
  for (unsigned i = 0; i < n; ++i) {
    bounds[i] = static_cast<double>(std::uint64_t{1} << i);
  }
  return bounds;
}

TimeSeries::TimeSeries(double window_width, std::vector<double> hist_bounds)
    : width_(window_width), hist_bounds_(std::move(hist_bounds)) {
  require(width_ > 0.0, "TimeSeries: window_width must be positive");
  if (!hist_bounds_.empty()) {
    (void)Histogram(hist_bounds_);  // validates the bounds eagerly
  }
}

void TimeSeries::observe(double time, double value) {
  require(width_ > 0.0, "TimeSeries::observe: series has no window width");
  const auto index = static_cast<std::int64_t>(std::floor(time / width_));
  auto it = windows_.find(index);
  if (it == windows_.end()) {
    Window w;
    w.index = index;
    if (!hist_bounds_.empty()) w.hist = Histogram(hist_bounds_);
    it = windows_.emplace(index, std::move(w)).first;
  }
  Window& w = it->second;
  w.max = w.count == 0 ? value : std::max(w.max, value);
  ++w.count;
  w.sum += value;
  if (!hist_bounds_.empty()) w.hist.observe(value);
}

const TimeSeries::Window* TimeSeries::find(std::int64_t index) const {
  const auto it = windows_.find(index);
  return it == windows_.end() ? nullptr : &it->second;
}

std::uint64_t TimeSeries::total_count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [index, w] : windows_) total += w.count;
  return total;
}

double TimeSeries::total_sum() const noexcept {
  double total = 0.0;
  for (const auto& [index, w] : windows_) total += w.sum;
  return total;
}

void TimeSeries::write_json(std::ostream& os) const {
  os << "{\"window_width\":" << json_number(width_) << ",\"windows\":[";
  bool first = true;
  for (const auto& [index, w] : windows_) {
    if (!first) os << ',';
    first = false;
    os << "{\"index\":" << index
       << ",\"start\":" << json_number(static_cast<double>(index) * width_)
       << ",\"count\":" << w.count << ",\"sum\":" << json_number(w.sum)
       << ",\"max\":" << json_number(w.max);
    if (!hist_bounds_.empty()) {
      os << ",\"p50\":" << json_number(w.hist.quantile(0.50))
         << ",\"p95\":" << json_number(w.hist.quantile(0.95))
         << ",\"p99\":" << json_number(w.hist.quantile(0.99));
    }
    os << '}';
  }
  os << "]}";
}

namespace {
std::uint64_t traffic_key(std::size_t src, std::size_t dst) noexcept {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}
}  // namespace

TrafficMatrix::TrafficMatrix(std::size_t procs) : procs_(procs) {
  require(procs <= (std::size_t{1} << 32),
          "TrafficMatrix: at most 2^32 processors (pairs are keyed in 64 "
          "bits)");
}

std::size_t TrafficMatrix::slot(std::uint64_t key) const noexcept {
  // Fibonacci hashing: the top bits of key * 2^64/phi. The table is at most
  // half full, so the walk always reaches the key or an empty cell.
  const std::size_t mask = cells_.size() - 1;
  std::size_t i = (key * 0x9e3779b97f4a7c15ull) >> shift_;
  while (cells_[i].words != 0 && cells_[i].key != key) i = (i + 1) & mask;
  return i;
}

void TrafficMatrix::grow() {
  const std::size_t size = cells_.empty() ? 16 : 2 * cells_.size();
  const std::vector<Cell> old =
      std::exchange(cells_, std::vector<Cell>(size));
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  for (const Cell& c : old) {
    if (c.words != 0) cells_[slot(c.key)] = c;
  }
}

void TrafficMatrix::add(std::size_t src, std::size_t dst,
                        std::uint64_t words) {
  require(src < procs_ && dst < procs_,
          "TrafficMatrix::add: endpoint out of range");
  if (words == 0) return;
  if (cells_.empty()) grow();
  const std::uint64_t key = traffic_key(src, dst);
  std::size_t i = slot(key);
  if (cells_[i].words == 0) {
    // A new pair: grow first if it would fill more than half the table.
    if (2 * (used_ + 1) > cells_.size()) {
      grow();
      i = slot(key);
    }
    cells_[i].key = key;
    ++used_;
  }
  cells_[i].words += words;
  total_ += words;
}

std::uint64_t TrafficMatrix::words(std::size_t src, std::size_t dst) const {
  require(src < procs_ && dst < procs_,
          "TrafficMatrix::words: endpoint out of range");
  if (cells_.empty()) return 0;
  return cells_[slot(traffic_key(src, dst))].words;
}

TrafficMatrix::Link TrafficMatrix::busiest() const {
  // Keys order like (src, dst) pairs, so the lowest key breaks ties.
  const Cell* best = nullptr;
  for (const Cell& c : cells_) {
    if (c.words != 0 && (best == nullptr || c.words > best->words ||
                         (c.words == best->words && c.key < best->key))) {
      best = &c;
    }
  }
  if (best == nullptr) return {};
  return Link{static_cast<std::size_t>(best->key >> 32),
              static_cast<std::size_t>(best->key & 0xffffffffu), best->words};
}

std::vector<std::uint64_t> TrafficMatrix::dense() const {
  require(procs_ == 0 ||
              procs_ <= std::vector<std::uint64_t>().max_size() / procs_,
          "TrafficMatrix::dense: p x p cells exceed the addressable size");
  std::vector<std::uint64_t> out(procs_ * procs_, 0);
  for (const Cell& c : cells_) {
    if (c.words == 0) continue;
    out[(c.key >> 32) * procs_ + (c.key & 0xffffffffu)] = c.words;
  }
  return out;
}

namespace {
// The metric registered under `name`, constructed from `args` on first use
// (only then is the name copied into the map).
template <class Map, class... Args>
typename Map::mapped_type& fetch_or_create(Map& m, std::string_view name,
                                           Args&&... args) {
  const auto it = m.find(name);
  if (it != m.end()) return it->second;
  return m.try_emplace(std::string(name), std::forward<Args>(args)...)
      .first->second;
}

template <class Map>
const typename Map::mapped_type* find_in(const Map& m, std::string_view name) {
  const auto it = m.find(name);
  return it == m.end() ? nullptr : &it->second;
}
}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  return fetch_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return fetch_or_create(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds) {
  return fetch_or_create(histograms_, name, std::move(upper_bounds));
}

TimeSeries& MetricsRegistry::series(std::string_view name, double window_width,
                                    std::vector<double> hist_bounds) {
  return fetch_or_create(series_, name, window_width, std::move(hist_bounds));
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  return find_in(counters_, name);
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  return find_in(gauges_, name);
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  return find_in(histograms_, name);
}

const TimeSeries* MetricsRegistry::find_series(std::string_view name) const {
  return find_in(series_, name);
}

namespace {
template <class Map>
std::vector<std::string> keys_of(const Map& m) {
  std::vector<std::string> out;
  out.reserve(m.size());
  for (const auto& [name, value] : m) out.push_back(name);
  return out;  // std::map iterates in sorted order already
}
}  // namespace

std::vector<std::string> MetricsRegistry::counter_names() const {
  return keys_of(counters_);
}
std::vector<std::string> MetricsRegistry::gauge_names() const {
  return keys_of(gauges_);
}
std::vector<std::string> MetricsRegistry::histogram_names() const {
  return keys_of(histograms_);
}
std::vector<std::string> MetricsRegistry::series_names() const {
  return keys_of(series_);
}

void MetricsRegistry::reset() noexcept {
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
  for (auto& [name, s] : series_) s.reset();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    os << json_quote(name) << ':' << c.value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    os << json_quote(name) << ':' << json_number(g.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    os << json_quote(name) << ":{\"count\":" << h.count()
       << ",\"sum\":" << json_number(h.sum())
       << ",\"mean\":" << json_number(h.mean())
       << ",\"max\":" << json_number(h.max())
       << ",\"p50\":" << json_number(h.quantile(0.50))
       << ",\"p95\":" << json_number(h.quantile(0.95))
       << ",\"p99\":" << json_number(h.quantile(0.99)) << ",\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets(); ++i) {
      if (i > 0) os << ',';
      os << "{\"le\":";
      if (i + 1 == h.buckets()) {
        os << "\"inf\"";
      } else {
        os << json_number(h.bucket_bound(i));
      }
      os << ",\"count\":" << h.bucket_count(i) << '}';
    }
    os << "]}";
  }
  os << '}';
  // Only emit the section when something registered a series: exports that
  // predate TimeSeries stay byte-identical.
  if (!series_.empty()) {
    os << ",\"series\":{";
    first = true;
    for (const auto& [name, s] : series_) {
      if (!first) os << ',';
      first = false;
      os << json_quote(name) << ':';
      s.write_json(os);
    }
    os << '}';
  }
  os << '}';
}

}  // namespace hpmm
