// The unified telemetry spine: one structured event model shared by the
// simulator, the compiler, and the harness.
//
// Before this subsystem existed, "where do the cycles go?" was answered by
// four disconnected surfaces: a bare per-issue callback on sim::Machine,
// CoreStats counters, the pass manager's bespoke statistics structs, and
// the sweep supervisor's failure plumbing.  Telemetry replaces all of them
// with two event shapes and one counter container:
//
//  * SimEvent — a cycle-stamped simulator event (instruction issue, queue
//    enqueue/dequeue with occupancy, stall begin/end with cause).  Sim
//    events are a pure function of the simulated run: the same program and
//    seed produce the same event stream byte-for-byte, so traces can be
//    golden-tested like any other deterministic artifact.
//  * SpanEvent — a host-time interval (a compiler pass, a sweep point)
//    with an attached map of deterministic counters.
//    Host wall-clock values never enter the deterministic portion of any
//    artifact; sinks that serialize can drop spans wholesale (see
//    ChromeTraceSink's include_host and HostFieldsSuppressed()).
//  * CounterRegistry — named deterministic counters/metrics with a
//    per-entry artifact-visibility flag, so one registry can feed both the
//    byte-stable BENCH_*.json artifacts and wider diagnostic surfaces
//    (e.g. table3's extra columns) without two hand-rolled mappings.
//
// Zero overhead when off: every producer holds a nullable TelemetrySink*
// and emits nothing when it is null.  In particular sim::Machine keeps its
// fast-path eligibility rule — no sink installed ⇒ the fast tier's loops
// (RunFastSingle on one core, the laggard-first RunFast on several),
// bit-identical statistics (tests/telemetry_test.cpp measures the sink-off
// delta; bench/micro_sim records it in BENCH_sim_throughput.json).
//
// Sinks (sinks.hpp): AggregatingSink (stats), ChromeTraceSink
// (chrome://tracing / ui.perfetto.dev), StreamSink (re-stamps the stream
// lane, for fanning many machines into one trace).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace fgpar::telemetry {

// ---------------------------------------------------------------------------
// Simulator events
// ---------------------------------------------------------------------------

enum class SimEventKind : std::uint8_t {
  kIssue,         // an instruction issued (pc/opcode valid)
  kQueueEnqueue,  // a value entered a hardware queue (queue fields valid)
  kQueueDequeue,  // a value left a hardware queue (queue fields valid)
  kStallBegin,    // a core stopped issuing for `cause`
  kStallEnd,      // the core issued again (begin_cycle..cycle is the stall)
};

/// Why a core is not issuing.  kPipeline covers operand (RAW) waits and
/// busy unpipelined units — everything Core::Step reports as pipeline
/// busy; the queue causes mirror CoreStats::stall_queue_empty/full.
enum class StallCause : std::uint8_t {
  kNone,
  kQueueEmpty,
  kQueueFull,
  kPipeline,
};

std::string_view StallCauseName(StallCause cause);

/// One cycle-stamped simulator event.  Deterministic: produced only by the
/// instrumented reference run loop, in (cycle, core-evaluation) order.
struct SimEvent {
  SimEventKind kind = SimEventKind::kIssue;
  std::uint64_t cycle = 0;
  /// Trace lane ("process" in Chrome traces).  Producers emit 0; adapters
  /// (StreamSink) re-stamp it to keep multiple machines apart in one file.
  int stream = 0;
  int core = -1;
  std::int64_t pc = -1;
  /// Issue events: the opcode's mnemonic ("addi", "enqf", ...).  Points at
  /// static storage (isa::OpcodeName); never owned by the event.
  std::string_view name;
  // Stall events.
  StallCause cause = StallCause::kNone;
  std::uint64_t begin_cycle = 0;  // kStallEnd: where the interval started
  // Queue events: the directional channel and its occupancy after the op.
  int queue_src = -1;
  int queue_dst = -1;
  bool queue_is_fp = false;
  int occupancy = 0;
};

// ---------------------------------------------------------------------------
// Host-time spans
// ---------------------------------------------------------------------------

/// A completed host-time interval with attached deterministic counters.
/// Spans are emitted on completion (ScopedSpan's destructor); categories in
/// use: "pipeline"/"pass" (compiler), "point" (sweep supervision).
struct SpanEvent {
  std::string_view category;
  std::string_view name;
  int stream = 0;
  double start_seconds = 0.0;  // host time relative to ProcessEpoch()
  double wall_seconds = 0.0;
  /// Deterministic counters attached to the span (may be null).
  const std::map<std::string, std::int64_t>* counters = nullptr;
};

/// Seconds since the process-wide telemetry epoch (first use).  All spans
/// share this single host timeline so one trace file lines them up.
double HostSecondsSinceEpoch();

/// True when FGPAR_BENCH_DETERMINISTIC is set non-empty/non-zero: sinks
/// that serialize must drop host-time fields so their output is a pure
/// function of the experiment inputs (same convention as BenchArtifact).
bool HostFieldsSuppressed();

// ---------------------------------------------------------------------------
// The sink interface
// ---------------------------------------------------------------------------

/// Receives telemetry events.  Producers treat a null sink pointer as
/// "telemetry off" and must not pay any per-event cost in that case.
///
/// Threading: one simulated machine emits from one thread, but harness
/// sweeps fan machines across host threads into a shared sink, so every
/// concrete sink in sinks.hpp serializes internally; custom sinks used
/// under a sweep must do the same.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void OnSim(const SimEvent& event) = 0;
  virtual void OnSpan(const SpanEvent& event) = 0;
};

/// RAII host-time span: measures construction→destruction and emits one
/// SpanEvent into `sink` (no-op when null).  Note() attaches deterministic
/// counters; counters() exposes the map for code that fills it indirectly
/// (the pass manager points CompileState::current_counters at it).
class ScopedSpan {
 public:
  ScopedSpan(TelemetrySink* sink, std::string_view category,
             std::string_view name, int stream = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Note(const std::string& key, std::int64_t value);
  std::map<std::string, std::int64_t>& counters() { return counters_; }

 private:
  TelemetrySink* sink_;
  std::string category_;
  std::string name_;
  int stream_;
  double start_seconds_ = 0.0;
  std::chrono::steady_clock::time_point start_;
  std::map<std::string, std::int64_t> counters_;
};

// ---------------------------------------------------------------------------
// Counter registry
// ---------------------------------------------------------------------------

/// Named deterministic counters (u64) and metrics (double), each tagged
/// with whether it belongs in byte-stable bench artifacts or is a wider
/// diagnostic (artifact consumers iterate only the artifact subset, so
/// adding a diagnostic never changes artifact bytes).  Keys iterate in
/// lexicographic order, matching the artifact schema's key ordering.
class CounterRegistry {
 public:
  void Count(const std::string& name, std::uint64_t value,
             bool artifact = true);
  void Metric(const std::string& name, double value, bool artifact = true);

  /// Lookup; throws fgpar::Error when the name was never registered.
  std::uint64_t count(const std::string& name) const;
  double metric(const std::string& name) const;
  bool HasCount(const std::string& name) const;

  template <typename Fn>  // fn(name, value) over artifact-visible counts
  void ForEachArtifactCount(Fn&& fn) const {
    for (const auto& [name, entry] : counts_) {
      if (entry.artifact) {
        fn(name, entry.value);
      }
    }
  }
  template <typename Fn>  // fn(name, value) over artifact-visible metrics
  void ForEachArtifactMetric(Fn&& fn) const {
    for (const auto& [name, entry] : metrics_) {
      if (entry.artifact) {
        fn(name, entry.value);
      }
    }
  }

 private:
  struct CountEntry {
    std::uint64_t value = 0;
    bool artifact = true;
  };
  struct MetricEntry {
    double value = 0.0;
    bool artifact = true;
  };
  std::map<std::string, CountEntry> counts_;
  std::map<std::string, MetricEntry> metrics_;
};

}  // namespace fgpar::telemetry
