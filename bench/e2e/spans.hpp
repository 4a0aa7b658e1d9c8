#pragma once

// In-memory span log of the traced pass set. The bench brackets each call
// into the program (and its own checks) with a span; nothing inside the
// library is instrumented. At exit the log is written as Chrome trace-event
// JSON (chrome://tracing, ui.perfetto.dev) plus a self-time table per span
// name, where self time is a span's duration minus its children's.

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace e2e {

class SpanLog {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;       ///< "<layer>.<call>", e.g. "algorithms.run"
    std::uint64_t op = 0;   ///< shared by every span of one operation
    std::size_t parent = kNone;
    double start = 0.0;     ///< seconds since the log's origin
    double end = 0.0;
  };

  SpanLog() : origin_(now_s()) {}

  /// Opens a span whose parent is the innermost open one.
  void open(std::string name, std::uint64_t op) {
    const std::size_t parent = stack_.empty() ? kNone : stack_.back();
    spans_.push_back({std::move(name), op, parent, now_s() - origin_, 0.0});
    stack_.push_back(spans_.size() - 1);
  }

  /// Closes the innermost open span.
  void close() {
    spans_[stack_.back()].end = now_s() - origin_;
    stack_.pop_back();
  }

  void write_chrome(std::ostream& os) const {
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i) os << ",\n";
      os << "{\"name\":" << hpmm::json_quote(s.name)
         << ",\"cat\":" << hpmm::json_quote(layer(s.name))
         << ",\"ph\":\"X\",\"pid\":1,\"tid\":1"
         << ",\"ts\":" << hpmm::json_number(s.start * 1e6)
         << ",\"dur\":" << hpmm::json_number((s.end - s.start) * 1e6)
         << ",\"args\":{\"op\":" << s.op << ",\"id\":" << i
         << ",\"parent\":"
         << (s.parent == kNone ? std::string("null")
                               : std::to_string(s.parent))
         << "}}";
    }
    os << "]}\n";
  }

  /// Count, total and self seconds per span name, largest self time first.
  void write_self_times(std::ostream& os) const {
    struct Row {
      std::uint64_t count = 0;
      double total = 0.0, self = 0.0;
    };
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != kNone) child[s.parent] += s.end - s.start;
    }
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Row& r = rows[spans_[i].name];
      const double dur = spans_[i].end - spans_[i].start;
      ++r.count;
      r.total += dur;
      r.self += dur - child[i];
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& x, const auto& y) {
      return x.second.self > y.second.self;
    });
    hpmm::Table table({"span", "count", "total_s", "self_s"});
    for (const auto& [name, r] : sorted) {
      table.begin_row()
          .add(name)
          .add_int(static_cast<long long>(r.count))
          .add_num(r.total, 6)
          .add_num(r.self, 6);
    }
    table.print_aligned(os);
  }

 private:
  static std::string layer(const std::string& name) {
    return name.substr(0, name.find('.'));
  }

  double origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span that is a no-op when the log is null (untraced passes).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint64_t op) : log_(log) {
    if (log_ != nullptr) log_->open(std::move(name), op);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

}  // namespace e2e
