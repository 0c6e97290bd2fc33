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
// hand-built queue-heavy machines, where the fast loop's sleeping blocked
// cores and their interval stall charges actually engage, through both run
// loops (MachineConfig::force_tier = kSlow on the reference side) and
// require every observable — cycles, instruction counts, queue traffic,
// and each core's stall statistics — to match exactly.
//
// The TierEquivalence tests extend the same contract to all 18 kernels and
// both run tiers: every kernel runs under auto and slow
// (RunConfig::force_tier) and both must agree on every observable,
// including where a sequential and a parallel run stop when they reach
// their cycle limit.  Seeded random programs, on one core (where the fast
// loop runs traces) and on several, add the other ways a run ends —
// deadlock and a machine check — and require the same error text and
// Snapshot() bytes from both tiers.  They are also registered as a
// standalone ctest label (`ctest -L tier_equivalence`) so CI can gate on
// the sweep by name.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/profile.hpp"
#include "compiler/compile.hpp"
#include "harness/runner.hpp"
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

/// The parallel program a KernelRunner measures for `spec` under `config`
/// (static select with profile feedback), with the run's machine config
/// and initial memory.
struct ParallelMachine {
  isa::Program program;
  sim::MachineConfig config;
  std::vector<std::uint64_t> image;

  /// How `tier` runs it under `max_cycles`: the error text ("" when the
  /// run completes), the machine's Snapshot() and the core-0 halt cycle.
  struct Outcome {
    std::string error;
    std::vector<std::uint8_t> snapshot;
    std::uint64_t cycles = 0;
  };
  Outcome Run(sim::RunTier tier, std::uint64_t max_cycles) const {
    sim::MachineConfig machine_config = config;
    machine_config.force_tier = tier;
    machine_config.max_cycles = max_cycles;
    harness::MeasuredMachine machine(machine_config, program, image);
    Outcome outcome;
    try {
      outcome.cycles = machine.Run().core0_halt_cycle;
    } catch (const Error& e) {
      outcome.error = e.what();
    }
    outcome.snapshot = machine.Snapshot();
    return outcome;
  }
};

ParallelMachine CompileParallelMachine(const kernels::SequoiaKernel& spec,
                                       const harness::RunConfig& config) {
  const ir::Kernel kernel = kernels::ParseSequoia(spec);
  const ir::DataLayout layout(kernel, /*base=*/64);
  harness::PreparedWorkload workload(kernel, layout, kernels::SequoiaInit(spec),
                                     config.seed);
  const analysis::ProfileData profile = analysis::ProfileData::Collect(
      kernel, layout, workload.params, workload.image, config.cache);
  compiler::CompileOptions options = config.compile;
  options.assumed_queue_capacity = config.queue.capacity;
  compiler::CompiledParallel compiled =
      compiler::CompileParallel(kernel, layout, options, &profile);
  ParallelMachine out;
  out.program = std::move(compiled.program);
  out.config = harness::MeasuredMachineConfig(config, layout, compiled.cores_used);
  out.image = std::move(workload.image);
  return out;
}

/// Runs `spec` under both run tiers with otherwise-identical config and
/// requires every KernelRun observable to agree.  The sequential leg of
/// the auto run is single-core and hot, so it genuinely executes inside
/// traces; its parallel leg runs the multi-core fast loop.  Then each tier
/// runs again with the cycle limit at half the sequential cycles: both
/// must report the same error and hand on_failure the same machine state.
/// Last, the compiled parallel program runs on its own machine with the
/// limit at half the parallel cycles, so the stop lands in the middle of
/// the multi-core loop, with the same demands.
void CheckKernelTierEquivalence(const kernels::SequoiaKernel& spec,
                                const kernels::ExperimentConfig& experiment) {
  harness::RunConfig config = kernels::ToRunConfig(experiment);
  config.force_tier = sim::RunTier::kSlow;
  const harness::KernelRun slow = kernels::RunKernel(spec, config);
  config.force_tier = sim::RunTier::kAuto;
  const harness::KernelRun traced = kernels::RunKernel(spec, config);
  ExpectRunsEqual(traced, slow, spec.id + std::string(" (auto vs slow)"));
  // Each tier must leave its mark: the auto run translated and entered
  // traces; the slow tier never touched the translator.
  EXPECT_GT(traced.threaded_stats.trace_enters, 0u) << spec.id;
  EXPECT_EQ(slow.threaded_stats.trace_enters, 0u) << spec.id;

  // The stop lands in the sequential run, which the auto leg runs in
  // traces.
  const std::uint64_t limit = slow.seq_cycles / 2;
  config.force_tier = sim::RunTier::kSlow;
  const LimitStop slow_stop = RunToLimit(spec, config, limit);
  config.force_tier = sim::RunTier::kAuto;
  const LimitStop traced_stop = RunToLimit(spec, config, limit);
  EXPECT_EQ(traced_stop.error, slow_stop.error) << spec.id;
  EXPECT_FALSE(slow_stop.snapshot.empty()) << spec.id;
  EXPECT_TRUE(traced_stop.snapshot == slow_stop.snapshot)
      << spec.id << ": auto and slow stop states differ";
  EXPECT_GT(traced_stop.trace_enters, 0u) << spec.id;

  const ParallelMachine parallel = CompileParallelMachine(spec, config);
  ASSERT_EQ(parallel.Run(sim::RunTier::kAuto, sim::MachineConfig().max_cycles).cycles,
            slow.par_cycles)
      << spec.id << ": the directly compiled parallel program differs";
  const std::uint64_t par_limit = slow.par_cycles / 2;
  const ParallelMachine::Outcome par_slow =
      parallel.Run(sim::RunTier::kSlow, par_limit);
  EXPECT_NE(par_slow.error.find("max_cycles = " + std::to_string(par_limit)),
            std::string::npos)
      << spec.id << ": " << par_slow.error;
  const ParallelMachine::Outcome par_stop =
      parallel.Run(sim::RunTier::kAuto, par_limit);
  EXPECT_EQ(par_stop.error, par_slow.error) << spec.id;
  EXPECT_TRUE(par_stop.snapshot == par_slow.snapshot)
      << spec.id << ": parallel stop states differ from the slow tier's";
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

/// A seeded random program for 2-4 cores, or for one, with queue capacity
/// 1-4 and transfer latency 1-30.  Every core loops the same number of
/// times over ALU and fp ops, loads and stores to one shared region, and
/// (on several cores) int and fp enqueues and dequeues to random partners.
/// The queue ops are laid out from one global order of transfers, so most
/// programs complete; an unmatched queue op makes some deadlock or stop at
/// the limit, and a divide whose divisor reaches zero in some iteration
/// traps in others.  A single-core loop runs 16-64 times, so its backedge
/// gets hot (ThreadedCache::kHotThreshold) and the fast loop runs traces.
struct RandomMachine {
  isa::Program program;
  sim::MachineConfig config;
};

RandomMachine RandomProgram(std::uint64_t seed, bool single_core) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  RandomMachine out;
  const int cores = single_core ? 1 : pick(2, 4);
  out.config.num_cores = cores;
  out.config.memory_words = 1 << 10;
  out.config.queue.capacity = pick(1, 4);
  out.config.queue.transfer_latency = pick(1, 30);

  // r1 counts iterations down, r2 = 1, r3 = the shared region's base, r4 =
  // the iteration count at which the divisor r1 - r4 is zero; data lives
  // in r5..r9 and f1..f4.
  const auto data_gpr = [&] { return isa::Gpr{static_cast<std::uint8_t>(pick(5, 9))}; };
  const auto data_fpr = [&] { return isa::Fpr{static_cast<std::uint8_t>(pick(1, 4))}; };
  const auto other_core = [&](int self) {
    const int other = pick(0, cores - 2);
    return other >= self ? other + 1 : other;
  };
  using Emit = std::function<void(isa::Assembler&)>;
  std::vector<std::vector<Emit>> body(static_cast<std::size_t>(cores));
  const auto local = [&](int core) {
    const isa::Gpr g = data_gpr();
    const isa::Gpr h = data_gpr();
    const isa::Fpr f = data_fpr();
    const isa::Fpr e = data_fpr();
    const std::int64_t offset = pick(0, 63);
    Emit emit;
    switch (pick(0, 5)) {
      case 0: emit = [=](isa::Assembler& a) { a.AddI(g, h, isa::Gpr{1}); }; break;
      case 1: emit = [=](isa::Assembler& a) { a.MulI(g, g, h); }; break;
      case 2: emit = [=](isa::Assembler& a) { a.FmaF(f, e, f); }; break;
      case 3: emit = [=](isa::Assembler& a) { a.LdI(g, isa::Gpr{3}, offset); }; break;
      case 4: emit = [=](isa::Assembler& a) { a.LdF(f, isa::Gpr{3}, offset); }; break;
      default: emit = [=](isa::Assembler& a) { a.StI(g, isa::Gpr{3}, offset); }; break;
    }
    body[static_cast<std::size_t>(core)].push_back(std::move(emit));
  };
  const auto queue_op = [&](int core, int remote, bool fp, bool enqueue) {
    const isa::Gpr g = data_gpr();
    const isa::Fpr f = data_fpr();
    body[static_cast<std::size_t>(core)].push_back([=](isa::Assembler& a) {
      if (enqueue) {
        fp ? a.EnqF(remote, f) : a.EnqI(remote, g);
      } else {
        fp ? a.DeqF(remote, f) : a.DeqI(remote, g);
      }
    });
  };
  const int events = pick(4, 14);
  for (int e = 0; e < events; ++e) {
    if (cores > 1 && pick(0, 9) < 4) {
      const int src = pick(0, cores - 1);
      const int dst = other_core(src);
      const bool fp = pick(0, 1) == 1;
      queue_op(src, dst, fp, /*enqueue=*/true);
      queue_op(dst, src, fp, /*enqueue=*/false);
    } else {
      local(pick(0, cores - 1));
    }
  }
  if (cores > 1 && pick(0, 5) == 0) {
    const int core = pick(0, cores - 1);
    queue_op(core, other_core(core), pick(0, 1) == 1, pick(0, 1) == 1);
  }
  const int iterations = single_core ? pick(16, 64) : pick(2, 12);
  isa::Assembler a;
  for (int c = 0; c < cores; ++c) {
    a.Bind(a.NewNamedLabel("core" + std::to_string(c)));
    a.LiI(isa::Gpr{1}, iterations);
    a.LiI(isa::Gpr{2}, 1);
    a.LiI(isa::Gpr{3}, 64);
    a.LiI(isa::Gpr{4}, pick(1, 3 * iterations));
    for (std::uint8_t r = 5; r <= 9; ++r) {
      a.LiI(isa::Gpr{r}, pick(-9, 9));
    }
    for (std::uint8_t r = 1; r <= 4; ++r) {
      a.LiF(isa::Fpr{r}, pick(-9, 9) * 0.5);
    }
    std::vector<Emit>& ops = body[static_cast<std::size_t>(c)];
    if (pick(0, 2) == 0) {
      const int at = pick(0, static_cast<int>(ops.size()));
      ops.insert(ops.begin() + at, [](isa::Assembler& a) {
        a.SubI(isa::Gpr{10}, isa::Gpr{1}, isa::Gpr{4});
        a.DivI(isa::Gpr{11}, isa::Gpr{5}, isa::Gpr{10});
      });
    }
    isa::Label top = a.NewLabel();
    a.Bind(top);
    for (const Emit& emit : ops) {
      emit(a);
    }
    a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
    a.Bnz(isa::Gpr{1}, top);
    a.Halt();
  }
  out.program = a.Finish();
  return out;
}

enum Ending { kCompleted, kDeadlock, kBudget, kMachineCheck, kEndings };

/// How one tier ran a random machine under one cycle limit.
struct RandomOutcome {
  Ending ending = kCompleted;
  std::string error;
  std::vector<std::uint8_t> snapshot;
  std::uint64_t now = 0;
  std::uint64_t trace_enters = 0;
};

RandomOutcome RunRandom(const RandomMachine& random, sim::RunTier tier,
                        std::uint64_t max_cycles) {
  sim::MachineConfig config = random.config;
  config.force_tier = tier;
  config.max_cycles = max_cycles;
  sim::Machine machine(config, random.program);
  for (int c = 0; c < config.num_cores; ++c) {
    machine.StartCoreAt(c, "core" + std::to_string(c));
  }
  RandomOutcome outcome;
  try {
    machine.Run();
  } catch (const sim::DeadlockError& e) {
    outcome.ending = kDeadlock;
    outcome.error = e.what();
  } catch (const sim::CycleBudgetError& e) {
    outcome.ending = kBudget;
    outcome.error = e.what();
  } catch (const Error& e) {
    outcome.ending = kMachineCheck;
    outcome.error = e.what();
  }
  outcome.snapshot = machine.Snapshot();
  outcome.now = machine.now();
  outcome.trace_enters = machine.threaded_stats().trace_enters;
  return outcome;
}

/// What a scan of random programs saw: how the slow runs ended, and how
/// many auto runs entered traces.
struct RandomScan {
  int endings[kEndings] = {};
  int traced_runs = 0;
};

/// Runs 250 seeded random programs under the slow and auto tiers, each
/// with no limit and with three random limits, and requires the same
/// error text and Snapshot() bytes from both.
void ScanRandomPrograms(bool single_core, RandomScan& scan) {
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    const RandomMachine random = RandomProgram(seed, single_core);
    const std::uint64_t no_limit = sim::MachineConfig().max_cycles;
    const RandomOutcome unlimited = RunRandom(random, sim::RunTier::kSlow, no_limit);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::uint64_t> limit_at(1, unlimited.now + 1);
    const std::uint64_t limits[] = {no_limit, limit_at(rng), limit_at(rng),
                                    limit_at(rng)};
    for (const std::uint64_t limit : limits) {
      const RandomOutcome slow = RunRandom(random, sim::RunTier::kSlow, limit);
      ++scan.endings[slow.ending];
      const RandomOutcome traced = RunRandom(random, sim::RunTier::kAuto, limit);
      scan.traced_runs += traced.trace_enters > 0 ? 1 : 0;
      ASSERT_EQ(traced.error, slow.error) << "seed " << seed << ", limit " << limit;
      ASSERT_TRUE(traced.snapshot == slow.snapshot)
          << "seed " << seed << ", limit " << limit
          << ": states differ from the slow tier's";
    }
  }
  std::printf("random %s programs: %d completed, %d deadlocked, %d stopped at "
              "the limit, %d trapped; %d auto runs entered traces\n",
              single_core ? "single-core" : "multi-core", scan.endings[kCompleted],
              scan.endings[kDeadlock], scan.endings[kBudget],
              scan.endings[kMachineCheck], scan.traced_runs);
}

TEST(TierEquivalence, RandomMultiCorePrograms) {
  RandomScan scan;
  ScanRandomPrograms(/*single_core=*/false, scan);
  EXPECT_GT(scan.endings[kCompleted], 0);
  EXPECT_GT(scan.endings[kDeadlock], 0);
  EXPECT_GT(scan.endings[kBudget], 0);
  EXPECT_GT(scan.endings[kMachineCheck], 0);
  EXPECT_EQ(scan.traced_runs, 0);  // multi-core machines never enter traces
}

TEST(TierEquivalence, RandomSingleCorePrograms) {
  // One core has no queues, so no run deadlocks; the fast loop runs hot
  // blocks as traces, and limits and divide traps land inside them.
  RandomScan scan;
  ScanRandomPrograms(/*single_core=*/true, scan);
  EXPECT_GT(scan.endings[kCompleted], 0);
  EXPECT_GT(scan.endings[kBudget], 0);
  EXPECT_GT(scan.endings[kMachineCheck], 0);
  EXPECT_GT(scan.traced_runs, 0);
}

/// Two cores bouncing values through their queues: every fast-path
/// mechanism engages (the blocked core sleeping until its partner's queue
/// op wakes it, and the stall cycles charged on waking), so any accounting
/// drift shows up in the per-core stats.
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
  // Exercises the fast loop on one core, traces included, against the
  // reference: arithmetic, RAW stalls, and taken branches.
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
  // arrival: both tiers must stop at exactly cycle 120 in the same state.
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
  for (const sim::RunTier tier : {sim::RunTier::kAuto, sim::RunTier::kSlow}) {
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
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0], errors[1]);
  EXPECT_TRUE(snapshots[0] == snapshots[1]) << "auto and slow stop states differ";
}

}  // namespace
