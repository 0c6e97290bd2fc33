#include "ledger.hpp"

#include <cmath>

#include "support/error.hpp"

namespace fgpar::e2e {

namespace {

std::int64_t ToNs(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e9));
}

// Every span shares the telemetry spine's timeline, so the pass manager's
// own spans line up with the ledger's.
std::int64_t NowNs() { return ToNs(telemetry::HostSecondsSinceEpoch()); }

}  // namespace

int Ledger::Open(std::string name) {
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.point = point_;
  span.name = std::move(name);
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Ledger::Close(int id) {
  FGPAR_CHECK_MSG(!open_.empty() && open_.back() == id,
                  "ledger spans must close innermost first");
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

void Ledger::Add(const std::string& name, double value) {
  totals_[name] += value;
  if (point_ >= 0) {
    in_points_[name] += value;
  }
}

double Ledger::Total(const std::string& name) const {
  const auto it = totals_.find(name);
  return it != totals_.end() ? it->second : 0.0;
}

double Ledger::InPoints(const std::string& name) const {
  const auto it = in_points_.find(name);
  return it != in_points_.end() ? it->second : 0.0;
}

void Ledger::OnSpan(const telemetry::SpanEvent& event) {
  if (event.category != "pass") {
    return;  // the enclosing "pipeline" span duplicates the ledger's own
  }
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.point = point_;
  span.name = "compiler.pass." + std::string(event.name);
  span.start_ns = ToNs(event.start_seconds);
  span.end_ns = span.start_ns + ToNs(event.wall_seconds);
  spans_.push_back(std::move(span));
}

std::string Ledger::ToJson(const std::string& workload,
                           std::uint64_t seed) const {
  std::string out = "{\"schema\": \"fgpar-e2e-trace-v1\", \"workload\": \"" +
                    workload + "\", \"seed\": " + std::to_string(seed) +
                    ", \"spans\": [\n";
  for (const Span& span : spans_) {
    out += "{\"id\": " + std::to_string(span.id) +
           ", \"parent\": " + std::to_string(span.parent) +
           ", \"point\": " + std::to_string(span.point) + ", \"name\": \"" +
           span.name + "\", \"start_ns\": " + std::to_string(span.start_ns) +
           ", \"end_ns\": " + std::to_string(span.end_ns) + "}";
    out += span.id + 1 < static_cast<int>(spans_.size()) ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

std::string_view LayerOf(std::string_view span_name) {
  return span_name.substr(0, span_name.find('.'));
}

LedgerSummary Summarize(const Ledger& ledger) {
  const std::vector<Span>& spans = ledger.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }

  LedgerSummary summary;
  std::map<int, double> point_ms;       // root duration per point
  std::map<int, double> point_work_ms;  // layer self time per point
  for (const Span& span : spans) {
    const double ms = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    NameStat& stat = summary.by_name[span.name];
    ++stat.calls;
    stat.total_ms += ms;
    if (span.point < 0 || span.name == kReplaySpan) {
      continue;
    }
    if (span.name == kPointSpan) {
      point_ms[span.point] += ms;
      continue;
    }
    const double self_ms =
        ms - static_cast<double>(child_ns[static_cast<std::size_t>(span.id)]) / 1e6;
    summary.layer_self_ms[std::string(LayerOf(span.name))] += self_ms;
    point_work_ms[span.point] += self_ms;
  }
  for (const auto& [point, ms] : point_ms) {
    ++summary.points;
    summary.point_ms += ms;
    summary.point_ms_samples.push_back(ms);
    summary.glue_ms += ms - point_work_ms[point];
  }
  return summary;
}

}  // namespace fgpar::e2e
