#include "sim/causal.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/json.hpp"

namespace hpmm {

std::string_view CausalGraph::kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::kCompute:
      return "compute";
    case Kind::kSend:
      return "send";
    case Kind::kRetry:
      return "retry";
    case Kind::kTransfer:
      return "transfer";
    case Kind::kModeled:
      return "modeled";
    case Kind::kWait:
      return "wait";
  }
  return "?";
}

std::uint64_t CausalGraph::Spans::bytes() const noexcept {
  return static_cast<std::uint64_t>(chunks_.capacity()) * sizeof(chunks_[0]) +
         static_cast<std::uint64_t>(std::max(size_, high_water_)) *
             sizeof(Span);
}

void CausalGraph::Spans::push_back(const Span& s) {
  const std::size_t c = size_ >> kChunkBits;
  if (c == chunks_.size()) chunks_.emplace_back().reserve(kChunkSpans);
  chunks_[c].push_back(s);
  ++size_;
}

void CausalGraph::Spans::clear() noexcept {
  for (auto& chunk : chunks_) chunk.clear();
  high_water_ = std::max(high_water_, size_);
  size_ = 0;
}

CausalGraph::CausalGraph(std::size_t procs, bool complete,
                         std::uint64_t trace_id)
    : complete_(complete), trace_id_(trace_id) {
  heads_.assign(procs, kNoSpan);
}

void CausalGraph::append(ProcId pid, Kind kind, std::uint16_t phase,
                         double start, double end, const PathTerms& terms,
                         double fault_overhead, Edge from) {
  require(spans_.size() < kNoSpan, "CausalGraph: span arena full");
  if (!is_wait(kind)) from = edge_from(pid);
  Span s;
  s.pred = from.pred;
  s.pid = pid;
  s.phase = phase;
  s.kind = kind;
  s.hop = from.hop;
  s.start = start;
  s.end = end;
  s.terms = terms;
  s.fault_overhead = fault_overhead;
  spans_.push_back(s);
  if (kind != Kind::kWait) {
    heads_[pid] = static_cast<std::uint32_t>(spans_.size() - 1);
  }
}

std::uint64_t CausalGraph::approx_bytes() const noexcept {
  return spans_.bytes() +
         static_cast<std::uint64_t>(heads_.capacity()) * sizeof(heads_[0]) +
         sizeof(*this);
}

CausalGraph::CriticalPath CausalGraph::critical_path(ProcId pid) const {
  CriticalPath cp;
  // pred always points at an earlier arena index (spans are appended in
  // event order), so the walk is strictly decreasing and terminates.
  for (std::uint32_t s = heads_[pid]; s != kNoSpan; s = spans_[s].pred) {
    cp.spans.push_back(s);
  }
  std::reverse(cp.spans.begin(), cp.spans.end());
  // Root-to-head summation matches the order the chain_ cells accumulated
  // their terms in, so the reconciliation against RunReport::critical_path
  // differs only by summation association (well inside 1e-9).
  for (const std::uint32_t s : cp.spans) {
    cp.terms += spans_[s].terms;
    cp.fault_overhead += spans_[s].fault_overhead;
  }
  return cp;
}

void CausalGraph::write_json(std::ostream& os) const {
  os << "{\"trace_id\": " << trace_id_
     << ", \"complete\": " << (complete_ ? "true" : "false")
     << ", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) os << ", ";
    os << "{\"kind\": \"" << kind_name(s.kind) << "\", \"pid\": " << s.pid
       << ", \"phase\": " << s.phase << ", \"hop\": " << s.hop
       << ", \"pred\": ";
    if (s.pred == kNoSpan) {
      os << "null";
    } else {
      os << s.pred;
    }
    os << ", \"start\": " << json_number(s.start)
       << ", \"end\": " << json_number(s.end)
       << ", \"compute\": " << json_number(s.terms.compute)
       << ", \"startup\": " << json_number(s.terms.startup)
       << ", \"word\": " << json_number(s.terms.word)
       << ", \"modeled\": " << json_number(s.terms.modeled)
       << ", \"other\": " << json_number(s.terms.other)
       << ", \"fault_overhead\": " << json_number(s.fault_overhead) << "}";
  }
  os << "], \"heads\": [";
  for (std::size_t pid = 0; pid < heads_.size(); ++pid) {
    if (pid) os << ", ";
    if (heads_[pid] == kNoSpan) {
      os << "null";
    } else {
      os << heads_[pid];
    }
  }
  os << "]}";
}

void CausalGraph::reset() {
  spans_.clear();
  std::fill(heads_.begin(), heads_.end(), kNoSpan);
}

}  // namespace hpmm
