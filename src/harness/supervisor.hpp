// Resilient sweep supervision: deadlines, retry, quarantine, resume.
//
// RunSweep (sweep.hpp) gives a grid all-or-nothing semantics: any point
// failure aborts the whole run (now with full attribution, but still
// losing every completed point).  SweepSupervisor layers the production
// posture on top, one policy at a time:
//
//  * deadline — every point gets a host wall-clock budget
//    (point_deadline_seconds) and a simulated cycle budget
//    (point_cycle_budget, delivered to the body through PointContext so
//    it can feed RunConfig::max_cycles / the stall watchdog);
//  * retry — a failed point is retried up to max_retries times; attempt 0
//    always uses the base seed (so a clean sweep is byte-identical to an
//    unsupervised one) and each retry reseeds deterministically from
//    (base, index, attempt);
//  * quarantine — a point that exhausts its retries becomes a structured
//    PointFailure (exception text, attempt count, last seed, optional
//    repro-bundle name) in the SweepOutcome instead of an exception; the
//    sweep always runs to the end, and the caller decides pass/fail
//    against SupervisorConfig::failure_budget;
//  * resume — completed points are journaled through SweepCheckpoint
//    ("fgpar-ckpt-v1", atomic rename per point), so a sweep killed at any
//    instant — including SIGKILL — resumes by replaying journaled
//    payloads and recomputing only what is missing.  Payloads hold only
//    deterministic results, so a resumed artifact is byte-identical to an
//    uninterrupted run.
//
// The supervisor is domain-agnostic: a point body returns its result as
// an opaque encoded string (see EncodeKernelRun for the KernelRun codec),
// which is exactly what gets journaled.  Everything here is deterministic
// except host wall-clock measurements.
//
// For tests and fault drills, FGPAR_SUPERVISOR_EXIT_AFTER=<n> makes the
// supervisor raise SIGKILL after journaling n new points this run — a
// reproducible stand-in for an external kill -9 mid-sweep.  The graceful
// counterpart, FGPAR_SUPERVISOR_SIGTERM_AFTER=<n>, raises SIGTERM at the
// same place; with SupervisorConfig::drain_on_sigterm the sweep finishes
// in-flight points, journals them, and returns SweepOutcome::stopped so
// the caller exits 0 and a later --resume completes the grid.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "harness/bench_artifact.hpp"
#include "support/error.hpp"
#include "support/telemetry/sinks.hpp"

namespace fgpar::harness {

struct KernelRun;

/// A point whose host wall-clock exceeded the configured deadline.  The
/// result (if any) is discarded and the attempt counts as failed.
class DeadlineError : public Error {
 public:
  explicit DeadlineError(std::string message) : Error(std::move(message)) {}
};

struct SupervisorConfig {
  /// Sweep name; names the checkpoint journal and the artifact.
  std::string name;
  /// One label per grid point, in index order.  Together with `name` they
  /// fingerprint the grid: a checkpoint journal from a different grid is
  /// rejected on resume instead of silently merged.
  std::vector<std::string> labels;
  /// Host worker threads (<=0: harness::ResolveSweepThreads).
  int sweep_threads = 0;
  /// Attempt-0 seed for every point (the unsupervised sweep's seed).
  std::uint64_t base_seed = 0x5EED;
  /// Failed points are retried this many times with fresh seeds.
  int max_retries = 0;
  /// Host wall-clock budget per attempt (0 = unlimited).
  double point_deadline_seconds = 0.0;
  /// Simulated-cycle budget per attempt, delivered via PointContext
  /// (0 = unlimited).
  std::uint64_t point_cycle_budget = 0;
  /// The sweep reports success while quarantined failures stay within
  /// this budget (see WithinFailureBudget).
  std::size_t failure_budget = 0;
  /// Journal path ("" = no checkpointing).
  std::string checkpoint_path;
  /// Load an existing journal and skip its completed points.  When false
  /// an existing journal is restarted from scratch.
  bool resume = false;
  /// Telemetry sink shared by the whole sweep (non-owning; null = off).
  /// Every attempt is bracketed by a host span — category "point" for
  /// attempt 0, "retry" for re-runs — named after the point's label and
  /// carrying `index`/`attempt` counters, and the point body receives the
  /// sink through PointContext::telemetry with the stream lane re-stamped
  /// to the point index, so concurrent points stay distinguishable.
  telemetry::TelemetrySink* telemetry = nullptr;
  /// Graceful SIGTERM: install a handler that asks the sweep to drain —
  /// points already running finish (and are journaled), points not yet
  /// started are skipped, and Run returns with SweepOutcome::stopped set
  /// so the caller can checkpoint, report, and exit 0.  Complements the
  /// SIGKILL/resume guarantee: TERM drains cleanly, KILL is recovered by
  /// --resume.  The handler is process-wide and idempotent.
  bool drain_on_sigterm = false;
};

/// Everything one attempt needs to be exactly reproducible.
struct PointContext {
  std::size_t index = 0;
  std::string label;
  int attempt = 0;            // 0 = first try
  std::uint64_t seed = 0;     // attempt 0: base_seed; retries: reseeded
  std::uint64_t cycle_budget = 0;
  double deadline_seconds = 0.0;
  /// The supervisor's telemetry routing for this attempt (stream lane
  /// already stamped with the point index).  Bodies pass it straight to
  /// RunConfig::telemetry.  Null when the sweep is untraced.
  telemetry::TelemetrySink* telemetry = nullptr;
};

/// A quarantined point: every attempt failed (or overran its deadline).
struct PointFailure {
  std::size_t index = 0;
  std::string label;
  std::string message;        // last attempt's exception text
  int attempts = 0;           // total attempts made (1 + retries)
  std::uint64_t last_seed = 0;
  bool deadline_exceeded = false;  // last failure was the wall-clock deadline
  std::string repro_bundle;   // bundle name from the ReproEmitter, or ""
  std::exception_ptr exception;    // last attempt's exception
};

struct SweepOutcome {
  std::vector<std::string> payloads;  // encoded result per completed point
  std::vector<char> completed;        // 1 = payload valid
  std::vector<PointFailure> failures; // quarantined points, index order
  std::size_t resumed_points = 0;     // replayed from the journal
  /// SIGTERM drain: the sweep stopped early.  In-flight points finished
  /// (and were journaled); `skipped_points` were never started and are
  /// neither completed nor failed — a --resume run recomputes exactly
  /// those.
  bool stopped = false;
  std::size_t skipped_points = 0;
};

class SweepSupervisor {
 public:
  /// Computes one point attempt and returns its encoded deterministic
  /// result (the journal payload).  Throwing fgpar::Error (or anything
  /// else) marks the attempt failed.
  using PointBody = std::function<std::string(const PointContext&)>;
  /// Called once per quarantined point with the final attempt's context
  /// and the failure record; returns the emitted bundle's name ("" for
  /// none).  Emitter errors are appended to the failure message, never
  /// propagated.
  using ReproEmitter =
      std::function<std::string(const PointContext&, const PointFailure&)>;

  explicit SweepSupervisor(SupervisorConfig config);

  /// Runs the whole grid under the configured policies.  Never throws for
  /// point failures (they are quarantined); does throw for checkpoint
  /// corruption/mismatch and other supervisor-level errors.
  SweepOutcome Run(const PointBody& body, const ReproEmitter& repro = nullptr);

  /// True when the outcome's quarantined failures fit the failure budget
  /// (the process-exit-code policy).
  bool WithinFailureBudget(const SweepOutcome& outcome) const {
    return outcome.failures.size() <= config_.failure_budget;
  }

  /// The deterministic seed for (index, attempt): attempt 0 is the base
  /// seed verbatim, each retry derives a fresh stream.
  static std::uint64_t AttemptSeed(std::uint64_t base_seed, std::size_t index,
                                   int attempt);

  const SupervisorConfig& config() const { return config_; }

  /// The process-wide SIGTERM drain flag (see
  /// SupervisorConfig::drain_on_sigterm).  RequestDrain is what the signal
  /// handler calls; tests use it to simulate a delivered SIGTERM, and
  /// ResetDrainForTest clears the sticky flag between cases.
  static bool DrainRequested();
  static void RequestDrain();
  static void ResetDrainForTest();

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
