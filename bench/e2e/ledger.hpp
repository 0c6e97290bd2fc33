// In-memory span ledger for the benchmark's traced run.
//
// The traced run brackets every call into a layer with a span {id, parent,
// point, name, start_ns, end_ns}.  A span's name is "<layer>.<step>" and
// the layer is one of the src/ modules: frontend, ir, analysis, compiler,
// sim, model, native, harness.  The compiler's per-pass spans arrive
// through the pass manager's existing telemetry hook (the ledger is the
// TelemetrySink) and nest under the enclosing compile span.  Spans stay in
// memory; Summarize() turns them into per-layer self times and the run
// writes them out once it ends.
//
// Two span names are structural rather than layer work:
//  * "harness.point" is the root of one traced point; its duration is the
//    point time and its self time is the harness glue;
//  * "harness.replay" groups calls re-timed after an opaque point (the
//    autotuner), so their time is attributed to the point without being
//    nested inside its root span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "support/telemetry/telemetry.hpp"

namespace fgpar::e2e {

inline constexpr std::string_view kPointSpan = "harness.point";
inline constexpr std::string_view kReplaySpan = "harness.replay";

struct Span {
  int id = 0;
  int parent = -1;  // -1: top level
  int point = -1;   // traced point index; -1 for set-up work
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Ledger final : public telemetry::TelemetrySink {
 public:
  /// Opens a span under the innermost open one and returns its id.
  int Open(std::string name);
  void Close(int id);

  /// Tags spans and counts recorded from now on with a traced point index
  /// (-1: set-up).
  void SetPoint(int point) { point_ = point; }

  /// Accumulates a named count.  Counts recorded inside traced points are
  /// also kept apart from set-up's: they cover exactly the traced round.
  void Add(const std::string& name, double value);
  double Total(const std::string& name) const;
  double InPoints(const std::string& name) const;

  // telemetry::TelemetrySink: "pass" spans from the compiler's pass manager
  // become children of the innermost open span.
  void OnSim(const telemetry::SimEvent&) override {}
  void OnSpan(const telemetry::SpanEvent& event) override;

  const std::vector<Span>& spans() const { return spans_; }

  /// The spans as one JSON document ("fgpar-e2e-trace-v1").
  std::string ToJson(const std::string& workload, std::uint64_t seed) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int point_ = -1;
  std::map<std::string, double> totals_;
  std::map<std::string, double> in_points_;
};

/// RAII span.  A null ledger makes it a no-op, which is how the untraced
/// path shares code with the traced one.
class Scope {
 public:
  Scope(Ledger* ledger, std::string name)
      : ledger_(ledger), id_(ledger != nullptr ? ledger->Open(std::move(name)) : -1) {}
  ~Scope() {
    if (ledger_ != nullptr) {
      ledger_->Close(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger* ledger_;
  int id_;
};

/// "compiler" for "compiler.pass.merge".
std::string_view LayerOf(std::string_view span_name);

/// Calls and inclusive time of every span with one name.
struct NameStat {
  std::int64_t calls = 0;
  double total_ms = 0.0;
  double MeanMs() const { return calls > 0 ? total_ms / static_cast<double>(calls) : 0.0; }
};

struct LedgerSummary {
  std::map<std::string, NameStat> by_name;  // all spans, set-up included
  int points = 0;                           // traced points
  double point_ms = 0.0;                    // summed point time
  std::vector<double> point_ms_samples;     // one per traced point
  /// Self time per layer inside traced points (structural spans excluded).
  std::map<std::string, double> layer_self_ms;
  /// Point time no layer span covers: the harness glue.
  double glue_ms = 0.0;
};

LedgerSummary Summarize(const Ledger& ledger);

}  // namespace fgpar::e2e
