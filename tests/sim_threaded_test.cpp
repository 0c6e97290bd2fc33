// Direct-threaded trace tests (sim/threaded.hpp).
//
// The contract under test: traces, which the auto tier runs on single-core
// machines, are an invisible accelerator.  Every observable — final cycle
// count, per-core statistics, memory, snapshot bytes, error messages,
// pause/resume behaviour — must be bit-identical to the fast and slow
// tiers; only the sim.threaded.* counters (and host wall time) may differ.
// These tests lock the deopt boundaries one by one: memory ops, telemetry
// sinks, pause horizons, and divide traps must each hand control back to
// the reference loops without divergence.
//
// Snapshots deliberately exclude force_tier from the identity hash, so a
// snapshot taken under one tier restores under another — which also lets
// these tests compare final machine states across tiers byte-for-byte.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "sim/machine.hpp"
#include "sim/threaded.hpp"
#include "support/error.hpp"
#include "support/telemetry/sinks.hpp"

namespace {

using namespace fgpar;

/// Pure-ALU hot loop: fully traceable, so the auto tier runs it
/// almost entirely inside one trace.
isa::Program HotAluLoop(std::int64_t iterations) {
  isa::Assembler a;
  isa::Label main = a.NewNamedLabel("main");
  a.Bind(main);
  a.LiI(isa::Gpr{1}, iterations);
  a.LiI(isa::Gpr{2}, 1);
  a.LiI(isa::Gpr{3}, 0);
  isa::Label top = a.NewLabel();
  a.Bind(top);
  a.AddI(isa::Gpr{3}, isa::Gpr{3}, isa::Gpr{2});
  a.MulI(isa::Gpr{4}, isa::Gpr{3}, isa::Gpr{2});
  a.XorI(isa::Gpr{5}, isa::Gpr{4}, isa::Gpr{3});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top);
  a.Halt();
  return a.Finish();
}

/// Hot loop with a load and a store in the body: the cache model stays
/// authoritative, so every iteration deopts at the memory boundary.  The
/// ALU prefix is at least kMinTraceOps long so the pre-store segment is
/// actually worth a trace (shorter prefixes stay interpreted).
isa::Program HotMemoryLoop(std::int64_t iterations) {
  isa::Assembler a;
  isa::Label main = a.NewNamedLabel("main");
  a.Bind(main);
  a.LiI(isa::Gpr{1}, iterations);
  a.LiI(isa::Gpr{2}, 1);
  a.LiI(isa::Gpr{4}, 64);  // base address
  isa::Label top = a.NewLabel();
  a.Bind(top);
  a.AddI(isa::Gpr{3}, isa::Gpr{1}, isa::Gpr{2});
  a.MulI(isa::Gpr{6}, isa::Gpr{3}, isa::Gpr{2});
  a.XorI(isa::Gpr{7}, isa::Gpr{6}, isa::Gpr{3});
  a.StI(isa::Gpr{3}, isa::Gpr{4}, 0);
  a.LdI(isa::Gpr{5}, isa::Gpr{4}, 0);
  a.AddI(isa::Gpr{4}, isa::Gpr{4}, isa::Gpr{2});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top);
  a.Halt();
  return a.Finish();
}

sim::MachineConfig SingleCore(sim::RunTier tier) {
  sim::MachineConfig config;
  config.num_cores = 1;
  config.memory_words = 1 << 12;
  config.force_tier = tier;
  return config;
}

/// A single-core machine pinned to `tier` with core 0 started at "main".
/// Built in place: a Machine can be neither copied nor moved.
class SingleMachine : public sim::Machine {
 public:
  SingleMachine(const isa::Program& program, sim::RunTier tier)
      : sim::Machine(SingleCore(tier), program) {
    StartCoreAt(0, "main");
  }
};

/// Runs `program` single-core under each tier and requires bit-identical
/// results and final snapshots (force_tier is excluded from the snapshot
/// identity hash precisely so this comparison is legal).
void CheckTierEquivalence(const isa::Program& program) {
  SingleMachine traced(program, sim::RunTier::kAuto);
  SingleMachine fast(program, sim::RunTier::kFast);
  SingleMachine slow(program, sim::RunTier::kSlow);
  const sim::RunResult rt = traced.Run();
  const sim::RunResult rf = fast.Run();
  const sim::RunResult rs = slow.Run();
  EXPECT_EQ(rt.cycles, rf.cycles);
  EXPECT_EQ(rt.core0_halt_cycle, rf.core0_halt_cycle);
  EXPECT_EQ(rt.instructions, rf.instructions);
  EXPECT_EQ(rf.cycles, rs.cycles);
  EXPECT_EQ(rf.core0_halt_cycle, rs.core0_halt_cycle);
  EXPECT_EQ(rf.instructions, rs.instructions);
  EXPECT_EQ(traced.Snapshot(), fast.Snapshot());
  EXPECT_EQ(fast.Snapshot(), slow.Snapshot());
}

TEST(SimThreaded, HotAluLoopMatchesFastAndSlow) {
  CheckTierEquivalence(HotAluLoop(500));
}

TEST(SimThreaded, HotLoopActuallyRunsInTraces) {
  SingleMachine m(HotAluLoop(500), sim::RunTier::kAuto);
  const sim::RunResult result = m.Run();
  const sim::ThreadedStats& ts = m.threaded_stats();
  EXPECT_EQ(m.resolved_tier(), sim::RunTier::kAuto);
  EXPECT_GT(ts.blocks_translated, 0u);
  EXPECT_GT(ts.trace_enters, 0u);
  // The loop body dominates the run, so the overwhelming majority of
  // instructions must issue inside traces, not in the interpreted step.
  EXPECT_GT(ts.threaded_instructions, result.instructions / 2);
}

TEST(SimThreaded, MemoryOpsDeoptAndMatchOtherTiers) {
  CheckTierEquivalence(HotMemoryLoop(400));
  SingleMachine m(HotMemoryLoop(400), sim::RunTier::kAuto);
  m.Run();
  const sim::ThreadedStats& ts = m.threaded_stats();
  EXPECT_GT(ts.trace_enters, 0u);
  EXPECT_GT(ts.deopt_memory, 0u) << "loads/stores must exit the trace";
}

TEST(SimThreaded, ColdCodeIsNeverTranslated) {
  // Trip count below kHotThreshold: no branch target ever gets hot.
  const std::int64_t trips = sim::ThreadedCache::kHotThreshold / 2;
  SingleMachine m(HotAluLoop(trips), sim::RunTier::kAuto);
  m.Run();
  EXPECT_EQ(m.threaded_stats().blocks_translated, 0u);
  EXPECT_EQ(m.threaded_stats().trace_enters, 0u);
}

TEST(SimThreaded, PauseResumeMidHotLoopIsIdentical) {
  const isa::Program program = HotAluLoop(500);
  SingleMachine uninterrupted(program, sim::RunTier::kAuto);
  const sim::RunResult golden = uninterrupted.Run();
  const std::vector<std::uint8_t> golden_bytes = uninterrupted.Snapshot();

  // Pause deep inside the hot loop — mid-trace from the user's viewpoint.
  SingleMachine paused(program, sim::RunTier::kAuto);
  const sim::PauseResult pause = paused.RunUntil(golden.cycles / 2);
  ASSERT_FALSE(pause.finished);

  // Restoring drops the trace cache (derived state); the resumed machine
  // re-translates lazily and still finishes bit-identically.
  SingleMachine resumed(program, sim::RunTier::kAuto);
  resumed.Restore(paused.Snapshot());
  EXPECT_EQ(resumed.threaded_stats().trace_enters, 0u)
      << "Restore must reset derived trace state";
  const sim::RunResult result = resumed.Run();
  EXPECT_EQ(result.cycles, golden.cycles);
  EXPECT_EQ(result.core0_halt_cycle, golden.core0_halt_cycle);
  EXPECT_EQ(result.instructions, golden.instructions);
  EXPECT_EQ(resumed.Snapshot(), golden_bytes);
}

TEST(SimThreaded, SnapshotRestoresAcrossTiers) {
  // A snapshot taken under the auto tier restores into a fast-tier
  // machine (and vice versa): force_tier is not part of machine identity.
  const isa::Program program = HotAluLoop(500);
  SingleMachine traced(program, sim::RunTier::kAuto);
  const sim::PauseResult pause = traced.RunUntil(200);
  ASSERT_FALSE(pause.finished);

  SingleMachine fast(program, sim::RunTier::kFast);
  fast.Restore(traced.Snapshot());
  const sim::RunResult cross = fast.Run();

  SingleMachine reference(program, sim::RunTier::kFast);
  const sim::RunResult golden = reference.Run();
  EXPECT_EQ(cross.cycles, golden.cycles);
  EXPECT_EQ(cross.instructions, golden.instructions);
  EXPECT_EQ(fast.Snapshot(), reference.Snapshot());
}

TEST(SimThreaded, TelemetrySinkForcesTheReferenceLoop) {
  // A sim-event sink demands per-issue instrumentation, which only the
  // slow loop carries; the tier request must lose to the hook.
  SingleMachine m(HotAluLoop(100), sim::RunTier::kAuto);
  telemetry::AggregatingSink sink;
  m.SetTelemetry(&sink);
  EXPECT_EQ(m.resolved_tier(), sim::RunTier::kSlow);
  const sim::RunResult traced = m.Run();
  EXPECT_EQ(m.threaded_stats().trace_enters, 0u);
  EXPECT_EQ(sink.SimCount(telemetry::SimEventKind::kIssue), traced.instructions);

  // And the instrumented run's numbers still match the auto run's.
  SingleMachine untraced(HotAluLoop(100), sim::RunTier::kAuto);
  const sim::RunResult plain = untraced.Run();
  EXPECT_EQ(traced.cycles, plain.cycles);
  EXPECT_EQ(traced.instructions, plain.instructions);
}

TEST(SimThreaded, DivideTrapInsideTraceMatchesReferenceError) {
  // g3 counts down to 0 and is then used as a divisor: the trap fires
  // inside a by-then-hot trace.  The trace must deopt pre-op so the
  // interpreted step raises the exact reference error.
  isa::Assembler a;
  isa::Label main = a.NewNamedLabel("main");
  a.Bind(main);
  a.LiI(isa::Gpr{1}, 100);
  a.LiI(isa::Gpr{2}, 1);
  a.LiI(isa::Gpr{3}, 50);
  isa::Label top = a.NewLabel();
  a.Bind(top);
  a.SubI(isa::Gpr{3}, isa::Gpr{3}, isa::Gpr{2});
  a.DivI(isa::Gpr{4}, isa::Gpr{1}, isa::Gpr{3});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top);
  a.Halt();
  const isa::Program program = a.Finish();

  const auto error_of = [&](sim::RunTier tier) -> std::string {
    SingleMachine m(program, tier);
    try {
      m.Run();
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  const std::string traced = error_of(sim::RunTier::kAuto);
  const std::string slow = error_of(sim::RunTier::kSlow);
  ASSERT_NE(traced, "") << "divide by zero must throw under the auto tier";
  EXPECT_EQ(traced, slow);
  EXPECT_NE(traced.find("divide by zero"), std::string::npos);
}

}  // namespace
