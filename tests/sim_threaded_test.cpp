// Direct-threaded trace tests (sim/threaded.hpp).
//
// The contract under test: traces, which the fast loop runs on single-core
// machines, are an invisible accelerator.  Every observable — final cycle
// count, per-core statistics, memory, snapshot bytes, error messages,
// where a run stops at its cycle limit — must be bit-identical to the slow
// tier; only the sim.threaded.* counters (and host wall time) may differ.
// These tests lock the deopt boundaries one by one: memory ops, telemetry
// sinks, the cycle limit, and divide traps must each hand control back to
// interpreted steps without divergence.
//
// Snapshots deliberately exclude force_tier from the identity hash, which
// lets these tests compare machine states across tiers byte-for-byte.
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

sim::MachineConfig SingleCore(sim::RunTier tier, std::uint64_t max_cycles) {
  sim::MachineConfig config;
  config.num_cores = 1;
  config.memory_words = 1 << 12;
  config.force_tier = tier;
  config.max_cycles = max_cycles;
  return config;
}

/// A single-core machine pinned to `tier` with core 0 started at "main".
/// Built in place: a Machine can be neither copied nor moved.
class SingleMachine : public sim::Machine {
 public:
  SingleMachine(const isa::Program& program, sim::RunTier tier,
                std::uint64_t max_cycles = sim::MachineConfig{}.max_cycles)
      : sim::Machine(SingleCore(tier, max_cycles), program) {
    StartCoreAt(0, "main");
  }
};

/// Runs `program` single-core under both tiers and requires bit-identical
/// results and final snapshots (force_tier is excluded from the snapshot
/// identity hash precisely so this comparison is legal).
void CheckTierEquivalence(const isa::Program& program) {
  SingleMachine traced(program, sim::RunTier::kAuto);
  SingleMachine slow(program, sim::RunTier::kSlow);
  const sim::RunResult rt = traced.Run();
  const sim::RunResult rs = slow.Run();
  EXPECT_EQ(rt.cycles, rs.cycles);
  EXPECT_EQ(rt.core0_halt_cycle, rs.core0_halt_cycle);
  EXPECT_EQ(rt.instructions, rs.instructions);
  EXPECT_EQ(traced.Snapshot(), slow.Snapshot());
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
  // A cycle limit halfway through the hot loop: the auto tier reaches it
  // inside a trace and must stop exactly there, with the error text and
  // machine state of the slow tier.
  const isa::Program program = HotAluLoop(500);
  SingleMachine probe(program, sim::RunTier::kAuto);
  const std::uint64_t limit = probe.Run().cycles / 2;

  std::vector<std::string> errors;
  std::vector<std::vector<std::uint8_t>> snapshots;
  for (const sim::RunTier tier : {sim::RunTier::kAuto, sim::RunTier::kSlow}) {
    SingleMachine m(program, tier, limit);
    try {
      m.Run();
      ADD_FAILURE() << "the cycle limit did not stop the run";
    } catch (const sim::CycleBudgetError& e) {
      errors.push_back(e.what());
    }
    EXPECT_EQ(m.now(), limit);
    EXPECT_EQ(m.threaded_stats().trace_enters > 0, tier == sim::RunTier::kAuto);
    snapshots.push_back(m.Snapshot());
  }
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0], errors[1]);
  EXPECT_TRUE(snapshots[0] == snapshots[1]) << "auto and slow stop states differ";
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
  // g3 counts down to 0, and g5 = g3 * 1 is then used as a divisor: the
  // trap fires inside a by-then-hot trace.  The trace must deopt pre-op so
  // the interpreted step raises the exact reference error.
  isa::Assembler a;
  isa::Label main = a.NewNamedLabel("main");
  a.Bind(main);
  a.LiI(isa::Gpr{1}, 100);
  a.LiI(isa::Gpr{2}, 1);
  a.LiI(isa::Gpr{3}, 50);
  isa::Label top = a.NewLabel();
  a.Bind(top);
  a.SubI(isa::Gpr{3}, isa::Gpr{3}, isa::Gpr{2});
  a.MulI(isa::Gpr{5}, isa::Gpr{3}, isa::Gpr{2});
  a.DivI(isa::Gpr{4}, isa::Gpr{1}, isa::Gpr{5});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top);
  a.Halt();
  const isa::Program program = a.Finish();

  // The trap must also leave the reference state: the divide waits on the
  // multiply's result, and that RAW wait is charged once.
  std::vector<std::string> errors;
  std::vector<std::vector<std::uint8_t>> snapshots;
  for (const sim::RunTier tier : {sim::RunTier::kAuto, sim::RunTier::kSlow}) {
    SingleMachine m(program, tier);
    try {
      m.Run();
      ADD_FAILURE() << "divide by zero must throw";
    } catch (const Error& e) {
      errors.push_back(e.what());
    }
    snapshots.push_back(m.Snapshot());
  }
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0], errors[1]);
  EXPECT_NE(errors[0].find("divide by zero"), std::string::npos);
  EXPECT_TRUE(snapshots[0] == snapshots[1]) << "auto and slow trap states differ";
}

}  // namespace
