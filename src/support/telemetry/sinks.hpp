// Concrete telemetry sinks.  All of them serialize internally so one sink
// instance can absorb events from every worker thread of a harness sweep.
//
//  * AggregatingSink  — in-memory statistics + ordered span log; the
//                       cheapest "is telemetry on" sink, used by tests and
//                       by --compile-stats to rebuild its report.
//  * ChromeTraceSink  — accumulates a Chrome trace_event document viewable
//                       at ui.perfetto.dev or chrome://tracing.  Sim
//                       events map 1 cycle = 1 µs on per-stream "sim"
//                       process tracks; host spans land on a "host" track
//                       in real microseconds (dropped entirely when host
//                       fields are suppressed, so deterministic-mode
//                       traces are byte-stable).
//  * StreamSink       — stateless adapter that re-stamps the stream lane
//                       before forwarding, so several machines (or sweep
//                       points) stay distinguishable in one shared sink.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/telemetry/telemetry.hpp"

namespace fgpar::telemetry {

/// A completed span with owned strings/counters, as recorded by
/// AggregatingSink in completion order.
struct SpanRecord {
  std::string category;
  std::string name;
  int stream = 0;
  double start_seconds = 0.0;
  double wall_seconds = 0.0;
  std::map<std::string, std::int64_t> counters;
};

/// Counts sim events by kind, accumulates stall cycles by cause, and keeps
/// every span in completion order.
class AggregatingSink : public TelemetrySink {
 public:
  void OnSim(const SimEvent& event) override;
  void OnSpan(const SpanEvent& event) override;

  std::uint64_t SimCount(SimEventKind kind) const;
  /// Total stalled cycles attributed to `cause` (summed kStallEnd
  /// intervals; a stall still open when the run ends is not counted).
  std::uint64_t StallCycles(StallCause cause) const;
  std::vector<SpanRecord> Spans() const;
  std::vector<SpanRecord> SpansInCategory(std::string_view category) const;

 private:
  mutable std::mutex mu_;
  std::array<std::uint64_t, 5> sim_counts_{};
  std::array<std::uint64_t, 5> stall_cycles_{};
  std::vector<SpanRecord> spans_;
};

/// Accumulates events and renders them as one Chrome trace_event JSON
/// document ("fgpar-trace-v1").  Construct, run, then Render()/WriteFile().
class ChromeTraceSink : public TelemetrySink {
 public:
  explicit ChromeTraceSink(bool include_host = !HostFieldsSuppressed());

  void OnSim(const SimEvent& event) override;
  void OnSpan(const SpanEvent& event) override;

  /// The complete trace document (deterministic given deterministic
  /// events; span timestamps are host wall times, so byte-stable output
  /// requires include_host = false).
  std::string Render() const;
  void WriteFile(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  bool include_host_;
  std::vector<SimEvent> sim_events_;
  std::vector<SpanRecord> spans_;
};

/// Forwards every event to `inner` with the stream lane re-stamped.
/// Stateless, so it needs no lock of its own; `inner` must outlive it.
class StreamSink : public TelemetrySink {
 public:
  StreamSink(TelemetrySink* inner, int stream)
      : inner_(inner), stream_(stream) {}

  void OnSim(const SimEvent& event) override;
  void OnSpan(const SpanEvent& event) override;

 private:
  TelemetrySink* inner_;
  int stream_;
};

}  // namespace fgpar::telemetry
