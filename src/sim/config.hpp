// Simulator configuration.
//
// Defaults follow Section II / Section V of the paper: an in-order
// A2-class core, point-to-point hardware queues of 20 slots with a 5-cycle
// transfer latency and 1-cycle pipeline occupancy for enqueue/dequeue, and
// a two-level cache hierarchy whose miss latencies are in the tens of
// cycles ("communication between cores ... typically at the L2 cache level,
// with latency in the order of tens of cycles").
#pragma once

#include <compare>
#include <cstdint>
#include <string_view>

#include "isa/opcode.hpp"

namespace fgpar::sim {

/// Which run loop executes the program.  Both tiers produce bit-identical
/// simulated cycles, memory, and statistics (tests/sim_golden_test.cpp);
/// they differ only in host throughput and in which instrumentation hooks
/// they can carry.
///
///  * kAuto — the fast loop (RunFast): it steps the laggard core first,
///            lets queue-blocked cores sleep, and on a single-core machine
///            runs hot blocks as direct-threaded traces (sim/threaded.hpp).
///  * kSlow — the instrumented reference loop (RunSlow).
///
/// A telemetry sink or SMT (threads_per_core > 1) routes kAuto to the slow
/// loop: only RunSlow carries the sink and the SMT slot arbitration.
enum class RunTier : std::uint8_t { kAuto = 0, kSlow };

/// Parses "auto" or "slow"; throws fgpar::Error on any other name.
RunTier ParseRunTier(std::string_view name);

/// Per-operation-class issue latencies (cycles until the result register is
/// ready).  `unpipelined` classes also occupy the issue stage for their full
/// latency, like the A2's iterative divide/sqrt units.
struct CoreTiming {
  int int_alu = 1;
  int int_mul = 4;
  int int_div = 32;   // unpipelined
  int fp_alu = 6;
  int fp_mul = 6;
  int fp_fma = 6;
  int fp_div = 32;    // unpipelined
  int fp_sqrt = 40;   // unpipelined
  int branch = 1;
  int taken_branch_penalty = 2;  // front-end bubbles after a taken branch
  int queue_op = 1;   // paper: "Processing an enqueue or dequeue instruction
                      // takes one cycle in the processor pipeline."
};

/// Latency of an instruction's result, excluding memory (loads ask the
/// MemorySystem) and queue waiting time.
int ResultLatency(const CoreTiming& timing, isa::Opcode op);

/// True for opcodes that occupy the issue stage for their full latency.
bool IsUnpipelined(isa::Opcode op);

/// Cache hierarchy parameters.  Word-addressed; one word = 8 bytes.
struct CacheConfig {
  int line_words = 8;    // 64-byte lines
  int l1_sets = 64;      // 64 sets x 4 ways x 64B = 16 KB (A2 L1D)
  int l1_ways = 4;
  int l2_sets = 512;     // shared L2 slice
  int l2_ways = 8;
  int l1_latency = 6;    // load-to-use on L1 hit
  int l2_latency = 40;   // L1 miss, L2 hit
  int mem_latency = 200; // L2 miss

  friend auto operator<=>(const CacheConfig&, const CacheConfig&) = default;
};

/// Hardware queue parameters (Section II, Section V).
struct QueueConfig {
  int capacity = 20;         // "The queue length is set to 20 slots"
  int transfer_latency = 5;  // "the transfer latency is set to 5 cycles"
};

struct MachineConfig {
  int num_cores = 4;
  /// SMT mode (Section II: the technique "can also be applied to multiple
  /// hardware threads on the same core").  num_cores counts *hardware
  /// threads*; consecutive groups of threads_per_core of them share one
  /// physical core's issue slot (round-robin, like the A2) and its L1.
  int threads_per_core = 1;
  std::uint64_t memory_words = 1ull << 22;  // 32 MB of 64-bit words
  CoreTiming timing;
  CacheConfig cache;
  QueueConfig queue;
  /// The cycle limit: a run still going at this cycle stops exactly there,
  /// under every run tier, and throws CycleBudgetError.
  std::uint64_t max_cycles = 1ull << 40;
  /// Depth limit of the per-core call stack.
  int call_stack_limit = 64;
  /// Pins the run loop (see RunTier); kSlow forces the instrumented
  /// reference loop even when the fast loop is eligible.  Results are
  /// bit-identical across tiers, so this knob exists for the
  /// tier-equivalence tests and the tier microbenchmarks, not for
  /// correctness, and is excluded from the snapshot identity hash.  A
  /// telemetry sink or threads_per_core > 1 always overrides it toward
  /// the reference loop.
  RunTier force_tier = RunTier::kAuto;
};

}  // namespace fgpar::sim
