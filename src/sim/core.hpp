// In-order scoreboarded core model.
//
// The core approximates a Blue Gene/Q A2 hardware thread: single-issue,
// in-order, pipelined.  Each cycle it tries to issue the instruction at pc;
// issue waits until all source registers are ready (a register scoreboard),
// until the divide/sqrt unit is free (those are unpipelined), and — for the
// paper's queue instructions — until the hardware queue can accept or
// supply a value.  Results become ready `ResultLatency` cycles after issue;
// loads get their latency from the MemorySystem.
//
// Functional and timing state are updated together at issue, which is safe
// for a single-issue in-order core because any consumer is held back by the
// scoreboard until the producer's latency has elapsed.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hpp"
#include "sim/config.hpp"
#include "sim/decoded.hpp"
#include "sim/hw_queue.hpp"
#include "sim/memory.hpp"

namespace fgpar {
class ByteReader;
class ByteWriter;
}  // namespace fgpar

namespace fgpar::sim {

/// All point-to-point queues of the machine: for every ordered core pair
/// there is one int queue and one fp queue (Section II: "for every pair of
/// cores A and B, there is a queue dedicated to transfers from A to B, and
/// another queue dedicated to transfers from B to A").
class QueueMatrix {
 public:
  QueueMatrix(int num_cores, const QueueConfig& config);

  HardwareQueue& IntQueue(int src, int dst);
  HardwareQueue& FpQueue(int src, int dst);
  const HardwareQueue& IntQueue(int src, int dst) const;
  const HardwareQueue& FpQueue(int src, int dst) const;
  int num_cores() const { return num_cores_; }

  /// Number of distinct directional queues with at least one transfer —
  /// the "Queues" column of Table III (int and fp queues between the same
  /// ordered pair count as one sender-receiver channel).
  int UsedChannelCount() const;

  /// Total values moved through all queues.
  std::uint64_t TotalTransfers() const;

  /// Highest simultaneous occupancy reached by any single queue — shows
  /// how much of the paper's 20-slot capacity the pipelining actually
  /// uses.
  int MaxOccupancy() const;

  /// Serializes/restores every queue's state.  Defined in sim/snapshot.cpp.
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  int Index(int src, int dst) const;

  int num_cores_;
  std::vector<HardwareQueue> int_queues_;
  std::vector<HardwareQueue> fp_queues_;
};

/// Why a core could not issue this cycle.
enum class StepOutcome {
  kIssued,        // an instruction issued
  kPipelineBusy,  // issue stage busy (multi-cycle op or RAW fast-forward)
  kStallDeqEmpty, // dequeue waiting for a value to arrive
  kStallEnqFull,  // enqueue waiting for a free slot
  kHalted,        // core has executed halt
  kIdle,          // core was never started
};

struct CoreStats {
  std::uint64_t instructions = 0;
  std::uint64_t enqueues = 0;
  std::uint64_t dequeues = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t stall_raw = 0;         // cycles lost to operand waits
  std::uint64_t stall_queue_empty = 0; // cycles blocked in deq
  std::uint64_t stall_queue_full = 0;  // cycles blocked in enq
};

class Core {
 public:
  /// The direct-threaded trace executor (sim/threaded.hpp) updates
  /// registers, scoreboards, pc, and stats in bulk without per-op calls.
  friend class ThreadedExec;
  /// `id` is the hardware-thread index; `physical_core` selects which L1
  /// this thread's memory accesses hit (SMT threads share their core's L1).
  Core(int id, const MachineConfig& config, int physical_core = -1);

  /// Begins execution at `pc`.  May be called again after a halt.
  void Start(std::int64_t pc);

  bool started() const { return started_; }
  bool halted() const { return halted_; }
  std::int64_t pc() const { return pc_; }
  int id() const { return id_; }

  /// Attempts to issue one instruction at cycle `now`.
  StepOutcome Step(std::uint64_t now, const isa::Program& program,
                   MemorySystem& memory, QueueMatrix& queues);

  /// Fast-path issue attempt against a predecoded program: no per-issue
  /// opcode re-classification.  The caller (Machine's fast run loop) must
  /// guarantee the core is started, not halted, and its issue stage is
  /// free (next_issue_cycle() <= now); Step's corresponding early-outs are
  /// deliberately absent here.  Timing and functional behaviour are
  /// bit-identical to Step — the golden cycle tests lock this equivalence.
  StepOutcome StepFast(std::uint64_t now, const DecodedProgram& program,
                       MemorySystem& memory, QueueMatrix& queues);

  /// Earliest cycle at which the issue stage is free again.
  std::uint64_t next_issue_cycle() const { return next_issue_; }

  /// When the core is stalled on a dequeue, identifies the source core and
  /// register class so the machine can compute the next arrival event.
  bool stalled_on_deq(int& remote, bool& is_fp) const;

  /// When the core is stalled on an enqueue, identifies the destination
  /// core and register class (for stall/deadlock reports).
  bool stalled_on_enq(int& remote, bool& is_fp) const;

  // ---- architectural state (tests / harness) ----
  std::int64_t gpr(int index) const;
  double fpr(int index) const;
  void set_gpr(int index, std::int64_t value);
  void set_fpr(int index, double value);

  const CoreStats& stats() const { return stats_; }
  CoreStats& mutable_stats() { return stats_; }

  /// One-line state description for deadlock diagnostics.
  std::string Describe(const isa::Program& program) const;

  /// Serializes/restores the full architectural and timing state (id and
  /// config travel with the machine identity, not the snapshot).  Defined
  /// in sim/snapshot.cpp.
  void SaveState(ByteWriter& w) const;
  void LoadState(ByteReader& r);

 private:
  /// Latest ready-cycle among the instruction's source registers.
  std::uint64_t SourcesReadyAt(const isa::Instruction& instr) const;
  void Execute(std::uint64_t now, const isa::Instruction& instr,
               MemorySystem& memory, QueueMatrix& queues);

  /// The single functional+timing execute switch, shared by Step (which
  /// derives latencies per issue) and StepFast (which reads them from the
  /// DecodedInstruction).  `result_latency` is the non-memory result
  /// latency, `unpipelined_busy` is the issue-stage occupancy for
  /// unpipelined ops (0 = pipelined), `taken_branch_busy` the occupancy of
  /// a taken branch.  Sharing one switch means the two simulator paths can
  /// never diverge on architectural state, only on (golden-tested) timing.
  template <typename InstrT>
  void ExecuteImpl(std::uint64_t now, const InstrT& instr, int result_latency,
                   std::uint64_t unpipelined_busy,
                   std::uint64_t taken_branch_busy, MemorySystem& memory,
                   QueueMatrix& queues);

  int id_;
  int physical_core_;
  const MachineConfig& config_;
  bool started_ = false;
  bool halted_ = false;
  std::int64_t pc_ = 0;
  std::uint64_t next_issue_ = 0;
  std::array<std::int64_t, isa::kNumGpr> gpr_{};
  std::array<double, isa::kNumFpr> fpr_{};
  std::array<std::uint64_t, isa::kNumGpr> gpr_ready_{};
  std::array<std::uint64_t, isa::kNumFpr> fpr_ready_{};
  std::vector<std::int64_t> call_stack_;
  // Set while the last Step returned a queue stall.
  int stalled_deq_remote_ = -1;
  bool stalled_deq_fp_ = false;
  int stalled_enq_remote_ = -1;
  bool stalled_enq_fp_ = false;
  CoreStats stats_;
};

}  // namespace fgpar::sim
