#include "support/telemetry/telemetry.hpp"

#include <cstdlib>

#include "support/error.hpp"

namespace fgpar::telemetry {

std::string_view StallCauseName(StallCause cause) {
  switch (cause) {
    case StallCause::kNone:
      return "none";
    case StallCause::kQueueEmpty:
      return "queue_empty";
    case StallCause::kQueueFull:
      return "queue_full";
    case StallCause::kPipeline:
      return "pipeline";
    case StallCause::kFrozen:
      return "frozen";
  }
  FGPAR_UNREACHABLE("bad StallCause");
}

double HostSecondsSinceEpoch() {
  // The epoch is pinned on first use; function-local static keeps it safe
  // under concurrent first calls from sweep workers.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

bool HostFieldsSuppressed() {
  const char* env = std::getenv("FGPAR_BENCH_DETERMINISTIC");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

ScopedSpan::ScopedSpan(TelemetrySink* sink, std::string_view category,
                       std::string_view name, int stream)
    : sink_(sink), category_(category), name_(name), stream_(stream) {
  if (sink_ != nullptr) {
    start_seconds_ = HostSecondsSinceEpoch();
    start_ = std::chrono::steady_clock::now();
  }
}

ScopedSpan::~ScopedSpan() {
  if (sink_ == nullptr) {
    return;
  }
  SpanEvent event;
  event.category = category_;
  event.name = name_;
  event.stream = stream_;
  event.start_seconds = start_seconds_;
  event.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  event.counters = &counters_;
  try {
    sink_->OnSpan(event);
  } catch (...) {
    // A sink failure must not turn destruction into termination; spans are
    // observability, not control flow.
  }
}

void ScopedSpan::Note(const std::string& key, std::int64_t value) {
  counters_[key] = value;
}

void CounterRegistry::Count(const std::string& name, std::uint64_t value,
                            bool artifact) {
  counts_[name] = CountEntry{value, artifact};
}

void CounterRegistry::Metric(const std::string& name, double value,
                             bool artifact) {
  metrics_[name] = MetricEntry{value, artifact};
}

std::uint64_t CounterRegistry::count(const std::string& name) const {
  const auto it = counts_.find(name);
  FGPAR_CHECK_MSG(it != counts_.end(), "unknown counter: " + name);
  return it->second.value;
}

double CounterRegistry::metric(const std::string& name) const {
  const auto it = metrics_.find(name);
  FGPAR_CHECK_MSG(it != metrics_.end(), "unknown metric: " + name);
  return it->second.value;
}

bool CounterRegistry::HasCount(const std::string& name) const {
  return counts_.find(name) != counts_.end();
}

}  // namespace fgpar::telemetry
