// Golden cycle-count regression tests.
//
// Locks the exact simulated cycle counts of representative Sequoia kernels
// (sequential plus 2- and 4-core parallel) to the values produced by the
// reference scheduler.  Any change to the simulator's issue logic, queue
// timing, fast-path dispatch, or fast-forward machinery that drifts
// simulated time by even one cycle fails here loudly — simulated timing is
// part of the reproduction's contract, not an implementation detail.
//
// The table was recorded from the cycle-accurate reference implementation
// (the instrumented slow path).  To re-record after an *intentional* timing
// change, run with FGPAR_GOLDEN_PRINT=1 and paste the emitted table.
//
// The FastSlowEquivalence tests go further than the golden table: they run
// hand-built queue-heavy machines, where the fast path's issue-skip and
// multi-cycle fast-forward accounting actually engage, through both run
// loops (MachineConfig::force_tier = kSlow on the reference side) and
// require every observable — cycles, instruction counts, queue traffic,
// and each core's stall statistics — to match exactly.
//
// The TierEquivalence tests extend the same contract to all 18 kernels and
// all three run tiers: every kernel is swept through auto, fast, and slow
// (RunConfig::force_tier) and all three must agree on every observable,
// including where a run stops when it reaches its cycle limit.  They are
// also registered as a standalone ctest label (`ctest -L
// tier_equivalence`) so CI can gate on the sweep by name.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "kernels/experiments.hpp"
#include "sim/machine.hpp"

namespace {

using namespace fgpar;

struct GoldenEntry {
  const char* id;             // Sequoia kernel id
  std::uint64_t seq_cycles;   // 1-core sequential, core-0 halt cycle
  std::uint64_t par2_cycles;  // 2-core fine-grained parallel
  std::uint64_t par4_cycles;  // 4-core fine-grained parallel
};

// Representative slice of the 18 kernels: the most independent kernel
// (irs-1), a gather-heavy interpolation (lammps-1), a carried-counter loop
// (lammps-4), a reduction (irs-3), the pathological load-balance case
// (umt2k-2), the paper's one slowdown (umt2k-6), and the speculation
// pattern (sphot-1).
constexpr GoldenEntry kGolden[] = {
    {"lammps-1", 101391ull, 82760ull, 57055ull},
    {"lammps-4", 66644ull, 71269ull, 48526ull},
    {"irs-1", 303557ull, 195412ull, 90432ull},
    {"irs-3", 27104ull, 18310ull, 18314ull},
    {"umt2k-2", 62531ull, 66671ull, 36699ull},
    {"umt2k-6", 94375ull, 99965ull, 90784ull},
    {"sphot-1", 60778ull, 42673ull, 34210ull},
};

struct Measured {
  std::uint64_t seq = 0;
  std::uint64_t par2 = 0;
  std::uint64_t par4 = 0;
};

Measured MeasureKernel(const std::string& id) {
  Measured m;
  kernels::ExperimentConfig config;
  config.cores = 2;
  const harness::KernelRun run2 =
      kernels::RunKernel(kernels::SequoiaKernelById(id), config);
  m.seq = run2.seq_cycles;
  m.par2 = run2.par_cycles;
  config.cores = 4;
  const harness::KernelRun run4 =
      kernels::RunKernel(kernels::SequoiaKernelById(id), config);
  EXPECT_EQ(run4.seq_cycles, m.seq) << id << ": sequential cycles must not "
                                       "depend on the parallel core count";
  m.par4 = run4.par_cycles;
  return m;
}

TEST(GoldenCycles, RepresentativeKernelsMatchReference) {
  const bool print = std::getenv("FGPAR_GOLDEN_PRINT") != nullptr;
  for (const GoldenEntry& golden : kGolden) {
    const Measured m = MeasureKernel(golden.id);
    if (print) {
      std::printf("    {\"%s\", %lluull, %lluull, %lluull},\n", golden.id,
                  static_cast<unsigned long long>(m.seq),
                  static_cast<unsigned long long>(m.par2),
                  static_cast<unsigned long long>(m.par4));
      continue;
    }
    EXPECT_EQ(m.seq, golden.seq_cycles) << golden.id << ": sequential cycles drifted";
    EXPECT_EQ(m.par2, golden.par2_cycles) << golden.id << ": 2-core cycles drifted";
    EXPECT_EQ(m.par4, golden.par4_cycles) << golden.id << ": 4-core cycles drifted";
  }
}

void ExpectRunsEqual(const harness::KernelRun& fast,
                     const harness::KernelRun& slow, const std::string& id) {
  EXPECT_EQ(fast.seq_cycles, slow.seq_cycles) << id;
  EXPECT_EQ(fast.par_cycles, slow.par_cycles) << id;
  EXPECT_EQ(fast.seq_instructions, slow.seq_instructions) << id;
  EXPECT_EQ(fast.par_instructions, slow.par_instructions) << id;
  EXPECT_EQ(fast.par_queue_transfers, slow.par_queue_transfers) << id;
  EXPECT_EQ(fast.max_queue_occupancy, slow.max_queue_occupancy) << id;
  EXPECT_EQ(fast.cores_used, slow.cores_used) << id;
  EXPECT_DOUBLE_EQ(fast.speedup, slow.speedup) << id;
}

/// What RunConfig::on_failure saw when a run stopped at its cycle limit.
struct LimitStop {
  std::string error;
  std::vector<std::uint8_t> snapshot;
  std::uint64_t trace_enters = 0;
};

/// Runs `spec` under `config` with RunConfig::max_cycles at `limit`, which
/// must stop it.
LimitStop RunToLimit(const kernels::SequoiaKernel& spec,
                     harness::RunConfig config, std::uint64_t limit) {
  LimitStop stop;
  config.max_cycles = limit;
  config.on_failure = [&](const sim::Machine& machine, const Error&) {
    stop.snapshot = machine.Snapshot();
    stop.trace_enters = machine.threaded_stats().trace_enters;
  };
  try {
    kernels::RunKernel(spec, config);
    ADD_FAILURE() << spec.id << ": the cycle limit did not stop the run";
  } catch (const sim::CycleBudgetError& e) {
    stop.error = e.what();
  }
  return stop;
}

/// Runs `spec` under all three run tiers with otherwise-identical config
/// and requires every KernelRun observable to agree.  The sequential leg
/// of the auto run is single-core and hot, so it genuinely executes inside
/// traces; its parallel leg runs the multi-core fast loop.  Then each tier
/// runs again with the cycle limit at half the sequential cycles: all
/// three must report the same error and hand on_failure the same machine
/// state.
void CheckKernelTierEquivalence(const kernels::SequoiaKernel& spec,
                                const kernels::ExperimentConfig& experiment) {
  harness::RunConfig config = kernels::ToRunConfig(experiment);
  config.force_tier = sim::RunTier::kSlow;
  const harness::KernelRun slow = kernels::RunKernel(spec, config);
  config.force_tier = sim::RunTier::kFast;
  const harness::KernelRun fast = kernels::RunKernel(spec, config);
  config.force_tier = sim::RunTier::kAuto;
  const harness::KernelRun traced = kernels::RunKernel(spec, config);
  ExpectRunsEqual(fast, slow, spec.id + std::string(" (fast vs slow)"));
  ExpectRunsEqual(traced, slow, spec.id + std::string(" (auto vs slow)"));
  // Each tier must leave its mark: the auto run translated and entered
  // traces; the pinned tiers never touched the translator.
  EXPECT_GT(traced.threaded_stats.trace_enters, 0u) << spec.id;
  EXPECT_EQ(fast.threaded_stats.trace_enters, 0u) << spec.id;
  EXPECT_EQ(slow.threaded_stats.trace_enters, 0u) << spec.id;

  // The stop lands in the sequential run, which the auto leg runs in
  // traces.
  const std::uint64_t limit = slow.seq_cycles / 2;
  config.force_tier = sim::RunTier::kSlow;
  const LimitStop slow_stop = RunToLimit(spec, config, limit);
  config.force_tier = sim::RunTier::kFast;
  const LimitStop fast_stop = RunToLimit(spec, config, limit);
  config.force_tier = sim::RunTier::kAuto;
  const LimitStop traced_stop = RunToLimit(spec, config, limit);
  EXPECT_EQ(fast_stop.error, slow_stop.error) << spec.id;
  EXPECT_EQ(traced_stop.error, slow_stop.error) << spec.id;
  EXPECT_FALSE(slow_stop.snapshot.empty()) << spec.id;
  EXPECT_TRUE(fast_stop.snapshot == slow_stop.snapshot)
      << spec.id << ": fast and slow stop states differ";
  EXPECT_TRUE(traced_stop.snapshot == slow_stop.snapshot)
      << spec.id << ": auto and slow stop states differ";
  EXPECT_GT(traced_stop.trace_enters, 0u) << spec.id;
}

TEST(TierEquivalence, AllKernelsFourCores) {
  for (const kernels::SequoiaKernel& spec : kernels::SequoiaKernels()) {
    kernels::ExperimentConfig config;
    config.cores = 4;
    CheckKernelTierEquivalence(spec, config);
  }
}

TEST(TierEquivalence, RepresentativeKernelsTwoCores) {
  for (const GoldenEntry& golden : kGolden) {
    kernels::ExperimentConfig config;
    config.cores = 2;
    CheckKernelTierEquivalence(kernels::SequoiaKernelById(golden.id), config);
  }
}

TEST(TierEquivalence, SpeculationConfigAgrees) {
  // Control-flow speculation changes the compiled code (and thus which
  // blocks get hot); the tier contract must hold for that shape too.
  kernels::ExperimentConfig config;
  config.cores = 4;
  config.speculation = true;
  CheckKernelTierEquivalence(kernels::SequoiaKernelById("sphot-1"), config);
}

/// Two cores bouncing values through their queues: every fast-path
/// mechanism engages (issue-skip of the blocked core, the multi-cycle
/// fast-forward to a queue head's arrival, and its 2k-1 stall-accounting
/// compensation), so any accounting drift shows up in the per-core stats.
isa::Program PingPongProgram(std::int64_t rounds) {
  isa::Assembler a;
  isa::Label core0 = a.NewNamedLabel("core0");
  isa::Label core1 = a.NewNamedLabel("core1");

  a.Bind(core0);
  a.LiI(isa::Gpr{1}, rounds);
  a.LiI(isa::Gpr{2}, 1);
  isa::Label top0 = a.NewLabel();
  a.Bind(top0);
  a.EnqI(1, isa::Gpr{1});
  a.DeqI(1, isa::Gpr{3});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top0);
  a.Halt();

  a.Bind(core1);
  a.LiI(isa::Gpr{1}, rounds);
  a.LiI(isa::Gpr{2}, 1);
  isa::Label top1 = a.NewLabel();
  a.Bind(top1);
  a.DeqI(0, isa::Gpr{3});
  a.EnqI(0, isa::Gpr{3});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top1);
  a.Halt();
  return a.Finish();
}

void ExpectCoreStatsEqual(const sim::Machine& fast, const sim::Machine& slow) {
  ASSERT_EQ(fast.num_cores(), slow.num_cores());
  for (int c = 0; c < fast.num_cores(); ++c) {
    const sim::CoreStats& f = fast.core(c).stats();
    const sim::CoreStats& s = slow.core(c).stats();
    EXPECT_EQ(f.instructions, s.instructions) << "core " << c;
    EXPECT_EQ(f.enqueues, s.enqueues) << "core " << c;
    EXPECT_EQ(f.dequeues, s.dequeues) << "core " << c;
    EXPECT_EQ(f.loads, s.loads) << "core " << c;
    EXPECT_EQ(f.stores, s.stores) << "core " << c;
    EXPECT_EQ(f.stall_raw, s.stall_raw) << "core " << c;
    EXPECT_EQ(f.stall_queue_empty, s.stall_queue_empty) << "core " << c;
    EXPECT_EQ(f.stall_queue_full, s.stall_queue_full) << "core " << c;
  }
}

TEST(FastSlowEquivalence, PingPongStallStatsIdentical) {
  const isa::Program program = PingPongProgram(500);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;

  sim::Machine fast(config, program);
  fast.StartCoreAt(0, "core0");
  fast.StartCoreAt(1, "core1");
  const sim::RunResult fast_result = fast.Run();

  config.force_tier = sim::RunTier::kSlow;
  sim::Machine slow(config, program);
  slow.StartCoreAt(0, "core0");
  slow.StartCoreAt(1, "core1");
  const sim::RunResult slow_result = slow.Run();

  EXPECT_EQ(fast_result.cycles, slow_result.cycles);
  EXPECT_EQ(fast_result.core0_halt_cycle, slow_result.core0_halt_cycle);
  EXPECT_EQ(fast_result.instructions, slow_result.instructions);
  ExpectCoreStatsEqual(fast, slow);
  EXPECT_EQ(fast.queues().TotalTransfers(), slow.queues().TotalTransfers());
  EXPECT_EQ(fast.queues().MaxOccupancy(), slow.queues().MaxOccupancy());
}

TEST(FastSlowEquivalence, PingPongUnderSmtIdentical) {
  // Both hardware threads share one physical core's issue slot: the SMT
  // round-robin arbitration must pick the same winners on both paths.
  const isa::Program program = PingPongProgram(200);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.threads_per_core = 2;
  config.memory_words = 1 << 12;

  sim::Machine fast(config, program);
  fast.StartCoreAt(0, "core0");
  fast.StartCoreAt(1, "core1");
  const sim::RunResult fast_result = fast.Run();

  config.force_tier = sim::RunTier::kSlow;
  sim::Machine slow(config, program);
  slow.StartCoreAt(0, "core0");
  slow.StartCoreAt(1, "core1");
  const sim::RunResult slow_result = slow.Run();

  EXPECT_EQ(fast_result.cycles, slow_result.cycles);
  EXPECT_EQ(fast_result.instructions, slow_result.instructions);
  ExpectCoreStatsEqual(fast, slow);
}

TEST(FastSlowEquivalence, SingleCoreLoopIdentical) {
  // Exercises the dedicated single-core fast loop (jump-to-next-issue)
  // against the reference: arithmetic, RAW stalls, and taken branches.
  isa::Assembler a;
  isa::Label main = a.NewNamedLabel("main");
  a.Bind(main);
  a.LiI(isa::Gpr{1}, 300);
  a.LiI(isa::Gpr{2}, 1);
  a.LiI(isa::Gpr{3}, 12345);
  isa::Label top = a.NewLabel();
  a.Bind(top);
  a.DivI(isa::Gpr{4}, isa::Gpr{3}, isa::Gpr{2});  // unpipelined
  a.MulI(isa::Gpr{5}, isa::Gpr{4}, isa::Gpr{2});  // RAW on the divide
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top);
  a.Halt();
  const isa::Program program = a.Finish();

  sim::MachineConfig config;
  config.num_cores = 1;
  config.memory_words = 1 << 12;

  sim::Machine fast(config, program);
  fast.StartCoreAt(0, "main");
  const sim::RunResult fast_result = fast.Run();

  config.force_tier = sim::RunTier::kSlow;
  sim::Machine slow(config, program);
  slow.StartCoreAt(0, "main");
  const sim::RunResult slow_result = slow.Run();

  EXPECT_EQ(fast_result.cycles, slow_result.cycles);
  EXPECT_EQ(fast_result.core0_halt_cycle, slow_result.core0_halt_cycle);
  EXPECT_EQ(fast_result.instructions, slow_result.instructions);
  ExpectCoreStatsEqual(fast, slow);
}

TEST(FastSlowEquivalence, CycleLimitStopsEveryTierAtTheLimit) {
  // Core 0 enqueues at cycle 63 and halts; the value reaches core 1 at
  // cycle 163, past the limit of 120.  While core 1 waits, the slow loop
  // advances one cycle at a time and the fast loop jumps toward the
  // arrival: every tier must stop at exactly cycle 120 in the same state.
  isa::Assembler a;
  isa::Label core0 = a.NewNamedLabel("core0");
  isa::Label core1 = a.NewNamedLabel("core1");
  a.Bind(core0);
  a.LiI(isa::Gpr{1}, 0);
  a.LiI(isa::Gpr{2}, 1);
  for (int i = 0; i < 60; ++i) {
    a.AddI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  }
  a.LiI(isa::Gpr{3}, 7);
  a.EnqI(1, isa::Gpr{3});
  a.Halt();
  a.Bind(core1);
  a.DeqI(0, isa::Gpr{1});
  a.Halt();
  const isa::Program program = a.Finish();

  std::vector<std::string> errors;
  std::vector<std::vector<std::uint8_t>> snapshots;
  for (const sim::RunTier tier :
       {sim::RunTier::kAuto, sim::RunTier::kFast, sim::RunTier::kSlow}) {
    sim::MachineConfig config;
    config.num_cores = 2;
    config.memory_words = 1 << 12;
    config.queue.transfer_latency = 100;
    config.max_cycles = 120;
    config.force_tier = tier;
    sim::Machine m(config, program);
    m.StartCoreAt(0, "core0");
    m.StartCoreAt(1, "core1");
    try {
      m.Run();
      ADD_FAILURE() << "the cycle limit did not stop the run";
    } catch (const sim::CycleBudgetError& e) {
      errors.push_back(e.what());
    }
    EXPECT_EQ(m.now(), 120u);
    snapshots.push_back(m.Snapshot());
  }
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_EQ(errors[0], errors[1]);
  EXPECT_EQ(errors[1], errors[2]);
  EXPECT_TRUE(snapshots[0] == snapshots[1]) << "auto and fast stop states differ";
  EXPECT_TRUE(snapshots[1] == snapshots[2]) << "fast and slow stop states differ";
}

}  // namespace
