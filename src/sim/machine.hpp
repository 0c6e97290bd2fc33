// The whole simulated machine: N cores, shared memory, queue matrix.
//
// The machine steps all cores in lockstep cycles.  When no core can issue
// in a cycle, time fast-forwards to the next event (pipeline free or queue
// arrival); if no future event exists the machine is provably deadlocked
// and a DeadlockError describing every core is thrown — this catches
// compiler bugs that break the paper's "senders and receivers are always
// paired at runtime" requirement immediately instead of hanging.  Like
// the paper's hardware, no simulated component ever fails on its own.
#pragma once

#include <cstdint>
#include <vector>

#include <memory>

#include "isa/program.hpp"
#include "sim/config.hpp"
#include "sim/core.hpp"
#include "sim/decoded.hpp"
#include "sim/memory.hpp"
#include "sim/threaded.hpp"
#include "support/error.hpp"
#include "support/telemetry/telemetry.hpp"

namespace fgpar::sim {

/// Structured snapshot of a deadlocked machine: which core is blocked
/// where, on which queue, and what is in flight.
struct StallReport {
  std::uint64_t cycle = 0;           // when the report was taken
  std::uint64_t stalled_cycles = 0;  // cycles since the last issue

  struct CoreState {
    int core = -1;
    bool started = false;
    bool halted = false;
    std::int64_t pc = 0;
    std::string detail;  // "core N: pc=.. [disasm] ; comment"
    enum class Wait { kNone, kDeqEmpty, kEnqFull } wait = Wait::kNone;
    // For kDeqEmpty/kEnqFull: the other end of the blocking queue.
    int remote_core = -1;
    bool queue_is_fp = false;
    int queue_occupancy = 0;
    int queue_in_flight = 0;  // enqueued but not yet arrived
  };
  std::vector<CoreState> cores;

  struct QueueState {
    int src = -1;
    int dst = -1;
    int int_occupancy = 0;
    int fp_occupancy = 0;
    int int_in_flight = 0;
    int fp_in_flight = 0;
  };
  std::vector<QueueState> queues;  // non-empty queues only

  /// Human-readable rendering (the text of DeadlockError).
  std::string Describe() const;
};

/// Thrown when all active cores are permanently blocked on queues.
class DeadlockError : public Error {
 public:
  explicit DeadlockError(StallReport report)
      : Error(report.Describe()), report_(std::move(report)) {}
  const StallReport& report() const { return report_; }

 private:
  StallReport report_;
};

struct RunResult {
  std::uint64_t cycles = 0;            // cycle at which the last core halted
  std::uint64_t core0_halt_cycle = 0;  // cycle at which core 0 halted
  std::uint64_t instructions = 0;      // total across cores
};

/// Outcome of RunUntil: either the program ran to completion (`finished`,
/// with `result` valid) or the machine paused at a natural loop boundary
/// at or after the requested cycle and can be snapshotted or continued.
struct PauseResult {
  bool finished = false;
  RunResult result;  // valid only when finished
};

class Machine {
 public:
  Machine(MachineConfig config, isa::Program program);
  /// Each core keeps a reference to config_, so a machine stays where it
  /// was built: no copies, no moves.
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Arms `core` to begin at program symbol `entry` when Run is called.
  void StartCoreAt(int core, const std::string& entry);
  void StartCoreAtPc(int core, std::int64_t pc);

  /// Runs until every started core halts.  Throws DeadlockError on queue
  /// deadlock and Error if config limits are exceeded.
  ///
  /// Three run tiers exist behind this call (docs/INTERNALS.md §12).  The
  /// *fast tier* steps against the predecoded instruction cache (built
  /// lazily, once per Machine) and skips cores that provably cannot issue
  /// this cycle.  The *auto tier* (the default when no telemetry sink is
  /// installed) is the fast tier plus, on a single-core machine, the
  /// direct-threaded block translator (sim/threaded.hpp), which compiles
  /// hot basic blocks into computed-goto traces.  The *slow tier* is the
  /// reference implementation: it polls every core every cycle and
  /// carries the telemetry sink; it is used iff a telemetry sink is
  /// installed or MachineConfig::force_tier is kSlow.  force_tier pins the
  /// choice for equivalence tests and benchmarks (a sink still wins).
  /// Simulated cycle counts, final memory, and per-core statistics are
  /// bit-identical across all tiers (tests/sim_golden_test.cpp,
  /// tests/sim_threaded_test.cpp).
  RunResult Run();

  /// Like Run, but pauses once now() reaches `stop_cycle`.  The pause
  /// happens only at a natural run-loop boundary (just before a cycle is
  /// evaluated), so the machine may stop strictly after `stop_cycle` when
  /// a fast-forward jump lands past it; this is what makes pause/resume
  /// bit-identical to an uninterrupted run — mid-jump state never exists
  /// and is never approximated.  Calling Run or RunUntil again continues
  /// exactly where the machine paused, as does Restore on a Snapshot taken
  /// while paused.
  PauseResult RunUntil(std::uint64_t stop_cycle);

  /// Serializes the complete mutable machine state — cycle clock, cores
  /// (registers, scoreboards, call stacks, stall latches, statistics),
  /// queue contents, functional memory, cache timing state, and run-loop
  /// bookkeeping — as a versioned, host-independent byte stream
  /// ("fgpar-snap-v2").  The stream embeds an identity hash of the program
  /// and MachineConfig; Restore into a machine built from anything else is
  /// rejected.  The decoded instruction cache is intentionally not
  /// serialized: it is a pure function of (program, timing), both covered
  /// by the identity hash, and is rebuilt lazily after Restore.
  std::vector<std::uint8_t> Snapshot() const;

  /// Restores state from a Snapshot byte stream.  Throws fgpar::Error on a
  /// version mismatch, an identity mismatch (different program or config),
  /// or a truncated/corrupt stream.  Defined in sim/snapshot.cpp.
  void Restore(const std::vector<std::uint8_t>& bytes);

  /// Stable fingerprint of this machine's program and configuration (the
  /// snapshot compatibility identity).
  std::uint64_t IdentityHash() const;

  /// Installs a telemetry sink (non-owning; pass nullptr to disable).  The
  /// sink sees, in deterministic (cycle, core-evaluation) order: every
  /// instruction issue, queue enqueue/dequeue with post-op occupancy, and
  /// stall begin/end intervals with their cause (telemetry::SimEvent).
  /// Installing a sink routes runs through the reference loop; simulated
  /// cycles, memory, and statistics stay bit-identical to the fast path
  /// (tests/telemetry_test.cpp).  The open-stall tracking behind the
  /// interval events is telemetry-only bookkeeping: it is reset at every
  /// fresh Run and excluded from Snapshot/Restore.
  void SetTelemetry(telemetry::TelemetrySink* sink) { telemetry_ = sink; }
  telemetry::TelemetrySink* telemetry() const { return telemetry_; }

  /// The tier RunUntil would use right now: kSlow when a telemetry sink is
  /// installed, otherwise MachineConfig::force_tier.
  RunTier resolved_tier() const;

  /// Translator/executor observability for the auto tier's traces.  Derived
  /// diagnostic state: excluded from Snapshot and reset by Restore.
  const ThreadedStats& threaded_stats() const { return threaded_stats_; }

  std::uint64_t now() const { return now_; }
  int num_cores() const { return config_.num_cores; }
  Core& core(int index);
  const Core& core(int index) const;
  MemorySystem& memory() { return memory_; }
  const MemorySystem& memory() const { return memory_; }
  QueueMatrix& queues() { return queues_; }
  const QueueMatrix& queues() const { return queues_; }
  const isa::Program& program() const { return program_; }
  const MachineConfig& config() const { return config_; }

 private:
  /// Snapshot of every core's blocking state plus queue occupancy, for
  /// the DeadlockError both run loops throw.
  StallReport BuildStallReport() const;

  /// Fast run loop for multi-core machines: predecoded dispatch,
  /// issue-skip for blocked cores, no instrumentation hooks.  Bit-identical
  /// timing/state to RunSlow.
  PauseResult RunFast();
  /// Single-core fast loop: no SMT arbitration, no queue stalls (a 1-core
  /// machine has no queues), so the loop is just issue /
  /// jump-to-next-issue-cycle.  With `traced` it also runs hot blocks as
  /// direct-threaded traces (sim/threaded.hpp).  Traces stay single-core:
  /// lockstep SMT arbitration and shared cache/queue timing make
  /// cross-core trace execution unsound for bit-identity.  Bit-identical
  /// to RunSlow either way.
  PauseResult RunFastSingle(bool traced);
  /// Reference run loop: polls every core every cycle; carries the
  /// telemetry sink.
  PauseResult RunSlow();
  /// Telemetry stall-interval tracking (no-ops unless a sink is
  /// installed): records per-core open stalls and emits
  /// kStallBegin/kStallEnd transitions.
  void TelemetryStall(std::size_t core, telemetry::StallCause cause);
  /// Closes `core`'s open stall (the core issued, or the run is ending).
  void TelemetryStallEnd(std::size_t core);
  /// Closes every open stall at now_ (called before throwing a
  /// DeadlockError so terminal stalls appear in traces).
  void TelemetryCloseStalls();
  /// Emits the issue event (plus the queue event for enq/deq ops) for the
  /// instruction at `pc` that core `core` just issued.
  void TelemetryIssue(std::size_t core, std::int64_t pc);
  /// Count of started-and-not-halted cores (loop-termination bookkeeping).
  int RunningCores() const;
  /// Completes a finished run's RunResult from the bookkeeping members.
  RunResult FinishResult() const;
  /// Marks the machine paused at `now_` (run-loop pause bookkeeping).
  PauseResult PauseHere();

  MachineConfig config_;
  isa::Program program_;
  MemorySystem memory_;
  QueueMatrix queues_;
  std::vector<Core> cores_;
  std::uint64_t now_ = 0;
  // Run-loop bookkeeping, promoted to members (and into snapshots) so a
  // paused machine resumes with the same no-progress count and core-0 halt
  // record as an uninterrupted run.  Reset at Run entry unless resuming
  // from a pause.
  std::uint64_t last_issue_cycle_ = 0;
  bool core0_halt_recorded_ = false;
  std::uint64_t core0_halt_cycle_ = 0;
  bool paused_ = false;
  /// Cycle at which the active RunUntil pauses (kNoStop for plain Run).
  std::uint64_t stop_at_ = 0;
  /// Telemetry sink (non-owning; null = off) and the per-core open-stall
  /// latches behind its interval events.  Not serialized: stall latches
  /// are derived observability state, reset at every fresh Run.
  telemetry::TelemetrySink* telemetry_ = nullptr;
  std::vector<telemetry::StallCause> open_stall_cause_;
  std::vector<std::uint64_t> open_stall_begin_;
  /// Predecoded instruction cache; built on the first fast-path Run.
  std::unique_ptr<DecodedProgram> decoded_;
  /// Trace cache; built on the first auto-tier Run of a single-core
  /// machine.  Derived state: dropped wholesale by Restore (traces are
  /// rebuilt lazily, like decoded_) and never serialized.
  std::unique_ptr<ThreadedCache> threaded_;
  ThreadedStats threaded_stats_;
  /// Per-core outcome of the current cycle, reused across Run calls to
  /// avoid per-cycle clears (only slots of cores evaluated this cycle are
  /// written; stale slots are never read — see the run-loop comments).
  std::vector<StepOutcome> outcomes_;
};

}  // namespace fgpar::sim
