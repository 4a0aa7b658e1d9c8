#include "sim/trace.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace hpmm {

const char* to_string(TraceEvent::Kind kind) noexcept {
  switch (kind) {
    case TraceEvent::Kind::kCompute: return "compute";
    case TraceEvent::Kind::kSend: return "send";
    case TraceEvent::Kind::kWait: return "wait";
    case TraceEvent::Kind::kModeledComm: return "modeled-comm";
    case TraceEvent::Kind::kRetry: return "retry";
  }
  return "?";
}

Trace::Trace(std::size_t procs, std::vector<TraceEvent> events)
    : Trace(procs, std::move(events), {std::string()}) {}

Trace::Trace(std::size_t procs, std::vector<TraceEvent> events,
             std::vector<std::string> phase_names)
    : procs_(procs),
      events_(std::move(events)),
      phase_names_(std::move(phase_names)) {
  require(!phase_names_.empty(),
          "Trace: phase-name table needs the default entry 0");
  for (const auto& e : events_) {
    require(e.pid < procs_, "Trace: event pid out of range");
    require(e.end >= e.start, "Trace: event with negative duration");
    require(e.phase < phase_names_.size(), "Trace: event phase out of range");
  }
}

const std::string& Trace::phase_name(std::uint16_t phase) const {
  require(phase < phase_names_.size(), "Trace::phase_name: out of range");
  return phase_names_[phase];
}

std::vector<TraceEvent> Trace::events_of(ProcId pid) const {
  std::vector<TraceEvent> out;
  for (const auto& e : events_) {
    if (e.pid == pid) out.push_back(e);
  }
  // Stable: events sharing a start time keep their recorded order.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start < b.start;
                   });
  return out;
}

double Trace::span() const noexcept {
  double t = 0.0;
  for (const auto& e : events_) t = std::max(t, e.end);
  return t;
}

double Trace::total(ProcId pid, TraceEvent::Kind kind) const {
  require(pid < procs_, "Trace::total: pid out of range");
  double sum = 0.0;
  for (const auto& e : events_) {
    if (e.pid == pid && e.kind == kind) sum += e.duration();
  }
  return sum;
}

double Trace::utilization(ProcId pid) const {
  const double t = span();
  if (t <= 0.0) return 0.0;
  return total(pid, TraceEvent::Kind::kCompute) / t;
}

void Trace::print_gantt(std::ostream& os, std::size_t width,
                        std::size_t max_procs) const {
  require(width >= 8, "Trace::print_gantt: width too small");
  const double t_end = span();
  if (t_end <= 0.0) {
    os << "(empty trace)\n";
    return;
  }
  const std::size_t shown = std::min(procs_, max_procs);
  os << "Gantt (" << shown << (shown < procs_ ? " of " : " / ")
     << procs_ << " procs, 0 .. " << format_number(t_end, 4)
     << " units)  #=compute >=send .=wait ~=modeled-comm !=retry\n";
  for (ProcId pid = 0; pid < shown; ++pid) {
    // Per-bin dominant activity.
    std::vector<std::array<double, 5>> bins(width, {0.0, 0.0, 0.0, 0.0, 0.0});
    for (const auto& e : events_) {
      if (e.pid != pid || e.duration() <= 0.0) continue;
      const auto kind_idx = static_cast<std::size_t>(e.kind);
      const double b0 = e.start / t_end * static_cast<double>(width);
      const double b1 = e.end / t_end * static_cast<double>(width);
      for (std::size_t b = static_cast<std::size_t>(b0);
           b < width && static_cast<double>(b) < b1; ++b) {
        const double lo = std::max(b0, static_cast<double>(b));
        const double hi = std::min(b1, static_cast<double>(b + 1));
        if (hi > lo) bins[b][kind_idx] += hi - lo;
      }
    }
    static constexpr char kGlyph[] = {'#', '>', '.', '~', '!'};
    std::string row(width, ' ');
    for (std::size_t b = 0; b < width; ++b) {
      double best = 0.0;
      int best_idx = -1;
      for (int k = 0; k < 5; ++k) {
        if (bins[b][static_cast<std::size_t>(k)] > best) {
          best = bins[b][static_cast<std::size_t>(k)];
          best_idx = k;
        }
      }
      if (best_idx >= 0) row[b] = kGlyph[best_idx];
    }
    os << (pid < 10 ? " p" : "p") << pid << " |" << row << "| u="
       << format_number(utilization(pid), 2) << '\n';
  }
}

void Trace::write_chrome(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // Metadata record first, so the single simulated process is labelled.
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"hpmm simulated machine\"}}";
  for (const auto& e : events_) {
    const std::string& phase = phase_names_[e.phase];
    os << ",{\"name\":"
       << json_quote(phase.empty() ? to_string(e.kind) : phase)
       << ",\"cat\":" << json_quote(to_string(e.kind))
       << ",\"ph\":\"X\",\"ts\":" << json_number(e.start)
       << ",\"dur\":" << json_number(e.duration()) << ",\"pid\":0,\"tid\":"
       << e.pid << ",\"args\":{\"phase\":" << json_quote(phase) << "}}";
  }
  os << "]}\n";
}

}  // namespace hpmm
