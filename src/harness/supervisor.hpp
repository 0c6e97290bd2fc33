// Resilient sweep supervision: quarantine, resume, repro.
//
// RunSweep (sweep.hpp) gives a grid all-or-nothing semantics: any point
// failure aborts the whole run (now with full attribution, but still
// losing every completed point).  SweepSupervisor layers three policies
// on top:
//
//  * quarantine — a point whose body throws becomes a structured
//    PointFailure (exception text, optional repro-bundle name) in the
//    SweepOutcome instead of an exception; the sweep always runs to the
//    end, and the caller decides pass/fail.  Each point runs once: the
//    supervisor never reseeds or reruns a point, so a row always measures
//    the workload its caller configured;
//  * resume — completed points are journaled through SweepCheckpoint
//    ("fgpar-ckpt-v1", atomic rename per point), so a sweep killed at any
//    instant — including SIGKILL — resumes by replaying journaled
//    payloads and recomputing only what is missing.  Payloads hold only
//    deterministic results, so a resumed artifact is byte-identical to an
//    uninterrupted run;
//  * repro — a ReproEmitter turns each quarantined point into a
//    self-contained bundle (harness/repro.hpp).
//
// The supervisor is domain-agnostic: a point body returns its result as
// an opaque encoded string (see EncodeKernelRun for the KernelRun codec),
// which is exactly what gets journaled.  Everything here is deterministic
// except host wall-clock measurements.
//
// For tests and the resume drill, FGPAR_SUPERVISOR_EXIT_AFTER=<n> makes the
// supervisor raise SIGKILL after journaling n new points this run — a
// reproducible stand-in for an external kill -9 mid-sweep.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "harness/bench_artifact.hpp"
#include "support/telemetry/sinks.hpp"

namespace fgpar::harness {

struct KernelRun;

struct SupervisorConfig {
  /// Sweep name; names the checkpoint journal and the artifact.
  std::string name;
  /// One label per grid point, in index order.  Together with `name` they
  /// fingerprint the grid: a checkpoint journal from a different grid is
  /// rejected on resume instead of silently merged.
  std::vector<std::string> labels;
  /// Host worker threads (<=0: harness::ResolveSweepThreads).
  int sweep_threads = 0;
  /// Journal path ("" = no checkpointing).
  std::string checkpoint_path;
  /// Load an existing journal and skip its completed points.  When false
  /// an existing journal is restarted from scratch.
  bool resume = false;
  /// Telemetry sink shared by the whole sweep (non-owning; null = off).
  /// Every point is bracketed by a host span of category "point", named
  /// after the point's label and carrying an `index` counter, and the
  /// point body receives the sink through PointContext::telemetry with
  /// the stream lane re-stamped to the point index, so concurrent points
  /// stay distinguishable.
  telemetry::TelemetrySink* telemetry = nullptr;
};

/// What a point body is told about the point it computes.
struct PointContext {
  std::size_t index = 0;
  std::string label;
  /// The supervisor's telemetry routing for this point (stream lane
  /// already stamped with the point index).  Bodies pass it straight to
  /// RunConfig::telemetry.  Null when the sweep is untraced.
  telemetry::TelemetrySink* telemetry = nullptr;
};

/// A quarantined point: its body threw.
struct PointFailure {
  std::size_t index = 0;
  std::string label;
  std::string message;        // the exception text
  std::string repro_bundle;   // bundle name from the ReproEmitter, or ""
};

struct SweepOutcome {
  std::vector<std::string> payloads;  // encoded result per completed point
  std::vector<char> completed;        // 1 = payload valid
  std::vector<PointFailure> failures; // quarantined points, index order
  std::size_t resumed_points = 0;     // replayed from the journal
};

class SweepSupervisor {
 public:
  /// Computes one point and returns its encoded deterministic result (the
  /// journal payload).  Throwing fgpar::Error (or anything else)
  /// quarantines the point.
  using PointBody = std::function<std::string(const PointContext&)>;
  /// Called once per quarantined point with its context and the failure
  /// record; returns the emitted bundle's name ("" for none).  Emitter
  /// errors are appended to the failure message, never propagated.
  using ReproEmitter =
      std::function<std::string(const PointContext&, const PointFailure&)>;

  explicit SweepSupervisor(SupervisorConfig config);

  /// Runs the whole grid under the configured policies.  Never throws for
  /// point failures (they are quarantined); does throw for checkpoint
  /// corruption/mismatch and other supervisor-level errors.
  SweepOutcome Run(const PointBody& body, const ReproEmitter& repro = nullptr);

 private:
  SupervisorConfig config_;
};

/// Appends a SweepOutcome's quarantined failures to a bench artifact (the
/// "failures" section; omitted entirely when no point failed, keeping
/// clean-run artifacts byte-identical to the pre-supervisor format).
void AddFailurePoints(const SweepOutcome& outcome, BenchArtifact& artifact);

/// Codec for KernelRun checkpoint payloads: a versioned little-endian
/// byte stream of the deterministic fields only (host wall-clock never
/// enters the journal).  Decode rejects truncated or trailing bytes.
std::string EncodeKernelRun(const KernelRun& run);
KernelRun DecodeKernelRun(const std::string& payload);

}  // namespace fgpar::harness
