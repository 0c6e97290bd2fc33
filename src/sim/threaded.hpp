// Direct-threaded trace tier for the simulator (the third run tier,
// above RunFast).
//
// Once a control-transfer target has been reached kHotThreshold times, the
// ThreadedCache translates the basic block starting there into one or more
// *traces*: flat arrays of pre-resolved computed-goto handlers with all
// operands baked in at translate time — register indices, immediates,
// result-latency constants, and issue-stage occupancies all come from the
// DecodedProgram, so a trace can never disagree with the interpreted tiers
// on timing inputs.  ThreadedExec::Run then executes a trace without
// re-entering the per-instruction dispatch switch, without the per-issue
// pc bounds check, and without the per-op queue-classification tests: one
// indirect jump per simulated instruction.
//
// Only isa::IsThreadedTraceable opcodes are compiled (pure register ALU /
// moves / compares / branches / halt / nop).  A load, store, queue op, or
// call/ret ends the current trace segment; the segment's terminating kExit
// handler deoptimizes back to the interpreted fast path *at the exact
// pre-op machine state*, so the interpreter — which is the reference for
// boundary ordering (RunUntil pause vs max_cycles vs divide traps) —
// re-derives every edge case itself.  Conservative per-op cycle guards
// (`issue cycle >= min(stop_at, max_cycles)`) exit the same way, which is
// what makes pause/resume and error states bit-identical to RunFast: a
// trace exit always lands on a state RunFastSingle's loop could itself
// have been in at its loop boundary.
//
// Traces extend through not-taken conditional branches (superblocks) and
// loop internally when a branch re-targets the trace head, so a hot inner
// loop of traceable ops runs entirely inside the handler chain.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/config.hpp"
#include "sim/decoded.hpp"
#include "support/telemetry/telemetry.hpp"

namespace fgpar::sim {

class Core;

/// Why a trace handed control back to the interpreted tier.  kMemory,
/// kQueue, kCallRet, and kCap are baked into kExit ops at translate time;
/// kBoundary is the runtime cycle-limit / divide-trap guard.
enum class TraceExitCause : std::uint8_t {
  kMemory = 0,  // next op is a load/store (cache-model boundary)
  kQueue,       // next op is an enqueue/dequeue
  kCallRet,     // next op is call/callr/ret
  kCap,         // block-walk length cap reached
  kEnd,         // walked off the end of the program
  kBoundary,    // runtime guard: pause/max_cycles horizon or divide trap
};

/// Handler selector for one trace slot.  Order must match the handler
/// table in threaded.cpp.
enum class TraceOpKind : std::uint8_t {
  kAddI = 0, kSubI, kMulI, kDivI, kRemI, kAndI, kOrI, kXorI, kShlI, kShrI,
  kMinI, kMaxI, kLiI, kMovI, kCeqI, kCneI, kCltI, kCleI,
  kAddF, kSubF, kMulF, kDivF, kNegF, kAbsF, kSqrtF, kMinF, kMaxF, kFmaF,
  kLiF, kMovF, kItoF, kFtoI, kCeqF, kCltF, kCleF,
  kNop, kJmp, kBz, kBnz, kHalt,
  kExit,  // deoptimize: pc = this op's pc, state untouched
};

inline constexpr int kNumTraceOpKinds = static_cast<int>(TraceOpKind::kExit) + 1;

/// One direct-threaded slot: a handler address plus every operand the
/// handler needs, folded at translate time.
struct TraceOp {
  const void* handler = nullptr;  // resolved lazily on first execution
  TraceOpKind kind = TraceOpKind::kExit;
  std::uint8_t dst = 0;
  std::uint8_t src1 = 0;
  std::uint8_t src2 = 0;
  TraceExitCause exit_cause = TraceExitCause::kEnd;  // kExit ops only
  std::int32_t latency = 0;  // result latency (cycles after issue)
  /// Issue-stage occupancy when the op issues: 1 for pipelined ops, the
  /// full latency for unpipelined divide/sqrt, and the *taken* occupancy
  /// (1 + taken_branch_penalty) for branch ops — a not-taken branch uses 1.
  std::int64_t busy = 1;
  std::int64_t pc = 0;   // program pc of this slot (deopt/exit writeback)
  std::int64_t imm = 0;  // immediate / branch target
  double fimm = 0.0;
};

/// A compiled superblock segment, anchored at ops[0].pc.
struct ThreadedTrace {
  std::int64_t head_pc = 0;
  bool resolved = false;  // handler addresses filled in by first Run
  std::vector<TraceOp> ops;
};

/// Translator + executor observability (sim.threaded.* counters; all
/// tier-dependent, so registered artifact=false — bench artifacts stay
/// byte-identical across tiers).
struct ThreadedStats {
  std::uint64_t blocks_translated = 0;  // hot heads walked by the translator
  std::uint64_t traces = 0;             // compiled segments (>= blocks)
  std::uint64_t trace_enters = 0;
  std::uint64_t trace_exits = 0;
  std::uint64_t threaded_instructions = 0;  // issued inside traces
  std::uint64_t deopt_memory = 0;
  std::uint64_t deopt_queue = 0;
  std::uint64_t deopt_call_ret = 0;
  std::uint64_t deopt_cap = 0;
  std::uint64_t deopt_end = 0;
  std::uint64_t deopt_boundary = 0;
  /// Multi-core machines run RunFast wholesale (lockstep SMT arbitration
  /// and shared cache timing make cross-core trace execution unsound for
  /// bit-identity); counted once per Run call.
  std::uint64_t deopt_multi_core = 0;

  ThreadedStats& operator+=(const ThreadedStats& o);
};

/// Outcome of executing one trace.
struct TraceRun {
  enum class Exit : std::uint8_t {
    kBranch,    // a taken branch left the trace; pc is the target
    kDeopt,     // hit a kExit op; pc is the first untranslated op
    kBoundary,  // conservative cycle guard or divide trap; pc unchanged
                // state; the caller must take one interpreted step next
    kHalt,      // the core executed halt inside the trace
  };
  Exit exit = Exit::kBoundary;
  TraceExitCause deopt_cause = TraceExitCause::kBoundary;
  std::uint64_t executed = 0;  // instructions issued inside the trace
};

/// Executes traces against a Core's architectural state (friend of Core).
class ThreadedExec {
 public:
  /// Runs `trace` starting at its head with the machine clock at `now`.
  /// `limit` is min(stop_at, max_cycles): any op whose issue cycle would
  /// reach it exits kBoundary *before* issuing, leaving a state identical
  /// to a RunFastSingle loop boundary so the interpreter re-derives the
  /// precise pause/throw ordering.  Updates now/last_issue and the core's
  /// registers, scoreboards, pc, next-issue cycle, and stats in bulk at
  /// exit.
  static TraceRun Run(Core& core, ThreadedTrace& trace, std::uint64_t& now,
                      std::uint64_t limit, std::uint64_t& last_issue,
                      ThreadedStats& stats);
};

/// Per-machine trace cache: heat counters, the pc -> trace index, and the
/// translator.  Dropped wholesale on Snapshot::Restore (traces are derived
/// state, rebuilt lazily, exactly like the DecodedProgram).
class ThreadedCache {
 public:
  /// How many times a control-transfer target must be reached before its
  /// block is translated.
  static constexpr std::uint32_t kHotThreshold = 8;
  /// Segments shorter than this are not worth the trace enter/exit cost.
  static constexpr std::size_t kMinTraceOps = 3;
  /// Hard cap on ops walked per block (runaway-straight-line guard).
  static constexpr int kMaxBlockOps = 256;

  ThreadedCache(const DecodedProgram& decoded, ThreadedStats* stats,
                telemetry::TelemetrySink* span_sink);

  /// The trace anchored exactly at `pc`, or nullptr.  Out-of-range pcs
  /// (wild jumps) miss; the interpreter raises the reference pc-range
  /// error on its next step.
  ThreadedTrace* TraceAt(std::int64_t pc) {
    if (pc < 0 || static_cast<std::size_t>(pc) >= trace_at_.size()) {
      return nullptr;
    }
    const std::int32_t idx = trace_at_[static_cast<std::size_t>(pc)];
    return idx >= 0 ? traces_[static_cast<std::size_t>(idx)].get() : nullptr;
  }

  /// Notes that control just transferred to `target`; translates the block
  /// there once it crosses kHotThreshold.
  void NoteControlTransfer(std::int64_t target);

  /// Host-span sink for `translate` SpanEvents (nullptr = off).  Distinct
  /// from Machine::SetTelemetry: sim-event sinks force the reference loop,
  /// which would mean traces never exist while observed.
  void SetSpanSink(telemetry::TelemetrySink* sink) { span_sink_ = sink; }

 private:
  void TranslateBlockAt(std::int64_t head);

  static constexpr std::int32_t kColdPc = -1;   // not translated, counting
  static constexpr std::int32_t kNoTrace = -2;  // translated: nothing usable

  const DecodedProgram& decoded_;
  ThreadedStats* stats_;
  telemetry::TelemetrySink* span_sink_;
  std::vector<std::int32_t> trace_at_;  // per pc: trace index or kColdPc/kNoTrace
  std::vector<std::uint32_t> heat_;     // per pc: control transfers seen
  std::vector<std::unique_ptr<ThreadedTrace>> traces_;
};

}  // namespace fgpar::sim
