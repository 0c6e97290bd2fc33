// Executes a target-independent LoweredProgram on real host threads.
//
// The sequential form runs on the calling thread.  The parallel form
// spawns one pinned std::thread per core and maps the plan's enq/deq items
// onto SPSC rings (ring.hpp), one ring per (sender, receiver, register
// class) triple — exactly the sim's queue identity, and single-producer/
// single-consumer by construction.  The run protocol mirrors the sim
// lowering minus the parts threads make redundant (function-pointer
// dispatch and TERMINATE):
//
//   primary (core 0): push each secondary's arguments (plan.comm.args
//     order) -> run its per-iteration plan items over the full trip ->
//     pop live-outs (plan.comm.live_outs order) -> pop one completion
//     token per secondary -> run the epilogue;
//   secondary c: pop arguments -> run its plan items -> push its
//     live-outs -> push completion token 1 on the (c, 0, int) ring.
//
// Timing is wall-clock only — it depends on the host scheduler and memory
// system and is deliberately excluded from deterministic artifacts
// (INTERNALS.md §13).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "compiler/lowered.hpp"
#include "native/ring.hpp"

namespace fgpar::native {

struct NativeRunStats {
  double wall_seconds = 0.0;
  std::uint64_t iterations = 0;

  // Parallel-form only (all zero for the sequential form).
  std::uint64_t queue_transfers = 0;  // values dequeued across all rings
  int rings_used = 0;                 // rings that carried at least one value
  int cores = 1;
};

/// Knobs for the parallel form (ignored by the sequential form).
struct NativeExecOptions {
  std::size_t ring_capacity = SpscRing::kDefaultCapacity;

  /// Watchdog deadline per blocking ring wait, in milliseconds.  0 waits
  /// forever (the historical behaviour).  With a deadline armed, a worker
  /// whose peer wedges without dying — so the abort flag never flips —
  /// throws RingStallError instead of hanging the run; the executor then
  /// aborts every other worker cooperatively, joins all threads, and
  /// rethrows the stall as the run's structured error.
  std::uint64_t ring_wait_timeout_ms = 0;

  /// Test-only fault injector, called on every worker thread right after
  /// it starts (before any ring traffic), with the worker's core id and
  /// the shared abort flag.  A hook that blocks until the flag flips
  /// simulates a wedged-but-alive worker; the watchdog test uses this to
  /// prove a stall aborts cleanly within the deadline.
  std::function<void(int core, const std::atomic<bool>& aborted)> wedge_hook;
};

/// Runs `lowered` over `memory` in place.  `params_raw` is the raw
/// parameter image (codegen.hpp RawParams).  Worker failures (bounds trap,
/// divide trap) abort the run cooperatively and rethrow on the caller; a
/// ring wait exceeding options.ring_wait_timeout_ms rethrows as
/// RingStallError.
NativeRunStats ExecuteNative(const compiler::LoweredProgram& lowered,
                             const std::vector<std::uint64_t>& params_raw,
                             std::vector<std::uint64_t>& memory,
                             const NativeExecOptions& options);

/// Convenience overload keeping the original capacity-only signature.
NativeRunStats ExecuteNative(const compiler::LoweredProgram& lowered,
                             const std::vector<std::uint64_t>& params_raw,
                             std::vector<std::uint64_t>& memory,
                             std::size_t ring_capacity =
                                 SpscRing::kDefaultCapacity);

}  // namespace fgpar::native
