// The whole simulated machine: N cores, shared memory, queue matrix.
//
// The machine steps its cores in (cycle, core index) order.  When no core
// can issue in a cycle, time fast-forwards to the next event (pipeline free
// or queue arrival); if no future event exists the machine is provably
// deadlocked and a DeadlockError describing every core is thrown — this
// catches compiler bugs that break the paper's "senders and receivers are
// always paired at runtime" requirement immediately instead of hanging.
// Like the paper's hardware, no simulated component ever fails on its own.
//
// A run either finishes or stops at MachineConfig::max_cycles: the clock
// never passes the limit (every fast-forward is clamped to it), and a run
// still going there throws CycleBudgetError with now() == max_cycles, in
// the same state under every run tier.
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

/// Thrown when a run reaches MachineConfig::max_cycles before every core
/// halts.  The machine stays intact at now() == max_cycles, in the same
/// state under every run tier, so its Snapshot() can be compared.
class CycleBudgetError : public Error {
 public:
  explicit CycleBudgetError(std::string message) : Error(std::move(message)) {}
};

struct RunResult {
  std::uint64_t cycles = 0;            // cycle at which the last core halted
  std::uint64_t core0_halt_cycle = 0;  // cycle at which core 0 halted
  std::uint64_t instructions = 0;      // total across cores
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
  /// deadlock, CycleBudgetError at MachineConfig::max_cycles, and Error on
  /// a machine check.
  ///
  /// Two run loops exist behind this call (docs/INTERNALS.md §12).  Both
  /// issue through Core::Step against the DecodedProgram the constructor
  /// built.  The *fast loop* (the auto tier, the default when no telemetry
  /// sink is installed) steps only the core whose next evaluation is
  /// earliest and lets queue-blocked cores sleep until their partner wakes
  /// them; on a single-core machine it also runs hot basic blocks as
  /// direct-threaded traces (sim/threaded.hpp).  The *slow loop* is the
  /// reference implementation: it polls every core every cycle and carries
  /// the telemetry sink and SMT slot arbitration; it is used iff a
  /// telemetry sink is installed, threads_per_core > 1, or
  /// MachineConfig::force_tier is kSlow.  Simulated cycle counts, memory,
  /// per-core statistics and Snapshot() are bit-identical across both
  /// wherever a run ends: completion, deadlock, max_cycles or a machine
  /// check (tests/sim_golden_test.cpp, tests/sim_threaded_test.cpp).
  RunResult Run();

  /// Serializes the complete mutable machine state — cycle clock, cores
  /// (registers, scoreboards, call stacks, stall latches, statistics),
  /// queue contents, functional memory, cache timing state, and run-loop
  /// bookkeeping — as a versioned, host-independent byte stream
  /// ("fgpar-snap-v4").  Repro bundles compare these bytes; nothing reads
  /// them back.  The stream embeds an identity hash of the program and
  /// MachineConfig, so equal bytes imply the same program and config.
  /// Derived caches (decoded instructions, traces) are not serialized.
  /// Defined in sim/snapshot.cpp.
  std::vector<std::uint8_t> Snapshot() const;

  /// The program and MachineConfig serialized byte for byte, except
  /// force_tier: every tier reaches the same state.  Static, so a caller
  /// can key on a program and config without building a machine.
  static std::vector<std::uint8_t> IdentityBytes(const isa::Program& program,
                                                 const MachineConfig& config);

  /// Stable fingerprint of this machine's program and configuration (the
  /// snapshot identity): Fnv1a64 of IdentityBytes.
  std::uint64_t IdentityHash() const;

  /// Installs a telemetry sink (non-owning; pass nullptr to disable).  The
  /// sink sees, in deterministic (cycle, core-evaluation) order: every
  /// instruction issue, queue enqueue/dequeue with post-op occupancy, and
  /// stall begin/end intervals with their cause (telemetry::SimEvent).
  /// Installing a sink routes runs through the reference loop; simulated
  /// cycles, memory, and statistics stay bit-identical to the fast path
  /// (tests/telemetry_test.cpp).  The open-stall tracking behind the
  /// interval events is telemetry-only bookkeeping: it is reset at every
  /// Run and excluded from Snapshot.
  void SetTelemetry(telemetry::TelemetrySink* sink) { telemetry_ = sink; }
  telemetry::TelemetrySink* telemetry() const { return telemetry_; }

  /// The tier Run would use right now: kSlow when a telemetry sink is
  /// installed or threads_per_core > 1, otherwise MachineConfig::force_tier.
  RunTier resolved_tier() const;

  /// Translator/executor observability for the fast loop's traces.
  /// Derived diagnostic state: excluded from Snapshot.
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

  /// Fast run loop for machines without SMT, laggard first: it steps the
  /// core whose next evaluation is earliest in (cycle, core index) order,
  /// while it stays earliest, and a queue-blocked core sleeps until its
  /// partner's enqueue or dequeue wakes it.  Core::Step runs in RunSlow's
  /// order, so state matches RunSlow at every point of a run.  kTraced is
  /// set on a single-core machine only: it also runs hot blocks as
  /// direct-threaded traces (sim/threaded.hpp).  A trace runs its core
  /// many cycles ahead, past any other core's evaluations, so multi-core
  /// machines never enter one.
  template <bool kTraced>
  RunResult RunFast();
  /// Reference run loop: steps every running core whose issue stage is
  /// free, every cycle, and advances one cycle at a time while a value is
  /// in flight; carries the telemetry sink and SMT slot arbitration.
  RunResult RunSlow();
  /// Telemetry stall-interval tracking (no-ops unless a sink is
  /// installed): records per-core open stalls and emits
  /// kStallBegin/kStallEnd transitions.
  void TelemetryStall(std::size_t core, telemetry::StallCause cause);
  /// Closes `core`'s open stall (the core issued, or the run is ending).
  void TelemetryStallEnd(std::size_t core);
  /// Closes every open stall at now_ (called before throwing a
  /// DeadlockError or CycleBudgetError so terminal stalls appear in
  /// traces).
  void TelemetryCloseStalls();
  /// Emits the issue event (plus the queue event for enq/deq ops) for the
  /// instruction at `pc` that core `core` just issued.
  void TelemetryIssue(std::size_t core, std::int64_t pc);
  /// Count of started-and-not-halted cores (loop-termination bookkeeping).
  int RunningCores() const;
  /// Completes a finished run's RunResult from the bookkeeping members.
  RunResult FinishResult() const;
  /// Throws CycleBudgetError; every run loop calls it with now_ exactly at
  /// max_cycles.
  [[noreturn]] void StopAtCycleLimit();

  MachineConfig config_;
  isa::Program program_;
  /// program_ decoded against config_.timing; every run loop issues from it.
  DecodedProgram decoded_;
  MemorySystem memory_;
  QueueMatrix queues_;
  std::vector<Core> cores_;
  std::uint64_t now_ = 0;
  // Run-loop bookkeeping, kept as members so a snapshot of a failed run
  // records the last issue cycle and core-0 halt record.  Reset at Run
  // entry.
  std::uint64_t last_issue_cycle_ = 0;
  bool core0_halt_recorded_ = false;
  std::uint64_t core0_halt_cycle_ = 0;
  /// Telemetry sink (non-owning; null = off) and the per-core open-stall
  /// latches behind its interval events.  Not serialized: stall latches
  /// are derived observability state, reset at every Run.
  telemetry::TelemetrySink* telemetry_ = nullptr;
  std::vector<telemetry::StallCause> open_stall_cause_;
  std::vector<std::uint64_t> open_stall_begin_;
  /// Trace cache; built on the first fast-loop Run of a single-core
  /// machine.  Derived state, never serialized.
  std::unique_ptr<ThreadedCache> threaded_;
  ThreadedStats threaded_stats_;
};

}  // namespace fgpar::sim
