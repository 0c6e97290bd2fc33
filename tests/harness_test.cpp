// Tests for the harness: the verifying runner, configuration plumbing,
// cross-machine correctness (SMT topologies, tuned vs static compilation),
// and the runner's memo (memoized answers equal recomputed ones).
#include <gtest/gtest.h>

#include <bit>
#include <functional>

#include "harness/autotune.hpp"
#include "harness/random_kernel.hpp"
#include "harness/runner.hpp"
#include "frontend/parser.hpp"
#include "ir/builder.hpp"
#include "ir/validate.hpp"
#include "kernels/sequoia.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/telemetry/sinks.hpp"

namespace fgpar::harness {
namespace {

WorkloadInit SimpleInit(std::int64_t trip) {
  return [trip](std::uint64_t seed, const ir::Kernel& kernel,
                const ir::DataLayout& layout, ir::ParamEnv& params,
                std::vector<std::uint64_t>& memory) {
    Rng rng(seed);
    for (const ir::Symbol& sym : kernel.symbols()) {
      if (sym.kind == ir::SymbolKind::kParam) {
        if (sym.type == ir::ScalarType::kI64) {
          params.SetI64(sym.id, trip);
        } else {
          params.SetF64(sym.id, rng.NextDouble(0.5, 2.0));
        }
      } else if (sym.kind == ir::SymbolKind::kArray) {
        const std::uint64_t base = layout.AddressOf(sym.id);
        for (std::int64_t i = 0; i < sym.array_size; ++i) {
          memory[base + static_cast<std::uint64_t>(i)] =
              sym.type == ir::ScalarType::kF64
                  ? std::bit_cast<std::uint64_t>(rng.NextDouble(0.5, 2.0))
                  : static_cast<std::uint64_t>(rng.NextInt(0, sym.array_size - 1));
        }
      }
    }
  };
}

constexpr const char* kKernel = R"(
kernel hk {
  param i64 n;
  param f64 c;
  array f64 a[64];
  array f64 o[64];
  scalar f64 out;
  carried f64 sum = 0.0;
  loop i = 0 .. n {
    f64 v = a[i] * c + 1.0;
    o[i] = v * v;
    sum = sum + v;
  }
  after {
    out = sum;
  }
}
)";

TEST(Runner, MissingParamFailsLoudly) {
  KernelRunner runner(frontend::ParseKernel(kKernel),
                      [](std::uint64_t, const ir::Kernel&, const ir::DataLayout&,
                         ir::ParamEnv&, std::vector<std::uint64_t>&) {
                        // deliberately sets nothing
                      });
  RunConfig config;
  EXPECT_THROW(runner.Run(config), Error);
}

TEST(Runner, InvalidKernelRejectedAtConstruction) {
  ir::KernelBuilder kb("bad");
  ir::TempHandle t = kb.DeclTemp("t", ir::ScalarType::kF64);
  ir::ScalarHandle out = kb.ScalarF64("out");
  kb.StartLoop("i", kb.ConstI(0), kb.ConstI(4));
  kb.StoreScalar(out, kb.Read(t));  // use before def
  kb.Assign(t, kb.ConstF(1.0));
  ir::Kernel bad = kb.Finish();
  EXPECT_THROW(KernelRunner(bad, SimpleInit(4)), Error);
}

TEST(Runner, SpeedupConsistentWithCycleCounts) {
  KernelRunner runner(frontend::ParseKernel(kKernel), SimpleInit(40));
  RunConfig config;
  config.compile.num_cores = 4;
  const KernelRun run = runner.Run(config);
  EXPECT_DOUBLE_EQ(run.speedup, static_cast<double>(run.seq_cycles) /
                                    static_cast<double>(run.par_cycles));
}

TEST(Runner, TunedNeverSlowerThanStaticOnTrainingWorkload) {
  KernelRunner runner(frontend::ParseKernel(kKernel), SimpleInit(40));
  RunConfig static_config;
  static_config.compile.num_cores = 4;
  static_config.tune_by_simulation = false;
  RunConfig tuned_config = static_config;
  tuned_config.tune_by_simulation = true;
  const KernelRun s = runner.Run(static_config);
  const KernelRun t = runner.Run(tuned_config);
  // The tuner picks by measured cycles on exactly this workload/hardware,
  // over a candidate set that includes the static choice.
  EXPECT_LE(t.par_cycles, s.par_cycles);
}

TEST(Runner, CompileChecksTheQueueCapacityItRunsOn) {
  // With one-slot queues the capacity check rejects three of sphot-1's six
  // candidates.  The compile is the same whatever
  // compile.assumed_queue_capacity holds.
  const kernels::SequoiaKernel& spec = kernels::SequoiaKernelById("sphot-1");
  const KernelRunner runner(kernels::ParseSequoia(spec),
                            kernels::SequoiaInit(spec));
  RunConfig config;
  config.queue.capacity = 1;
  const compiler::CompiledParallel reference = runner.Compile(config);
  int rejected = 0;
  for (const compiler::CandidateReport& report : reference.candidate_reports) {
    rejected += report.built ? 0 : 1;
  }
  EXPECT_EQ(rejected, 3);
  for (const int assumed : {1, 2, 20, 1000}) {
    config.compile.assumed_queue_capacity = assumed;
    const compiler::CompiledParallel compiled = runner.Compile(config);
    EXPECT_EQ(sim::Machine::IdentityBytes(compiled.program, {}),
              sim::Machine::IdentityBytes(reference.program, {}))
        << assumed;
    ASSERT_EQ(compiled.candidate_reports.size(),
              reference.candidate_reports.size());
    for (std::size_t i = 0; i < compiled.candidate_reports.size(); ++i) {
      const compiler::CandidateReport& a = compiled.candidate_reports[i];
      const compiler::CandidateReport& b = reference.candidate_reports[i];
      EXPECT_EQ(a.built, b.built) << assumed << " #" << i;
      EXPECT_EQ(a.selected, b.selected) << assumed << " #" << i;
      EXPECT_EQ(a.cost, b.cost) << assumed << " #" << i;
      EXPECT_EQ(a.detail, b.detail) << assumed << " #" << i;
      EXPECT_EQ(a.features, b.features) << assumed << " #" << i;
    }
  }
}

// SMT topologies must not change results, only timing.
class SmtCorrectness : public ::testing::TestWithParam<int> {};

TEST_P(SmtCorrectness, KernelsBitExactOnSmtMachines) {
  const kernels::SequoiaKernel& spec =
      kernels::SequoiaKernels()[static_cast<std::size_t>(GetParam())];
  KernelRunner runner(kernels::ParseSequoia(spec), kernels::SequoiaInit(spec));
  for (int tpc : {2, 4}) {
    RunConfig config;
    config.compile.num_cores = 4;
    config.threads_per_core = tpc;
    const KernelRun run = runner.Run(config);  // throws on mismatch
    EXPECT_GT(run.par_cycles, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(SomeKernels, SmtCorrectness,
                         ::testing::Values(0, 2, 5, 11, 15, 17));

TEST(Runner, FullyDeterministicAcrossRuns) {
  // The whole stack — workload, compiler, simulator — is deterministic:
  // two identical runs must agree cycle-for-cycle.  Two runners, so the
  // second run simulates instead of answering from the first's memo.
  const ir::Kernel kernel = frontend::ParseKernel(kKernel);
  RunConfig config;
  config.compile.num_cores = 4;
  const KernelRun a = KernelRunner(kernel, SimpleInit(40)).Run(config);
  const KernelRun b = KernelRunner(kernel, SimpleInit(40)).Run(config);
  EXPECT_EQ(a.seq_cycles, b.seq_cycles);
  EXPECT_EQ(a.par_cycles, b.par_cycles);
  EXPECT_EQ(a.par_instructions, b.par_instructions);
  EXPECT_EQ(a.par_queue_transfers, b.par_queue_transfers);
  EXPECT_EQ(a.com_ops, b.com_ops);
}

TEST(Fallback, RunSeedChangesWorkloadDeterministically) {
  // SimpleInit draws the workload from the run seed: a non-default seed
  // must replay bit-identically too, on a second runner (one runner would
  // answer the replay from its memo).
  const ir::Kernel kernel = frontend::ParseKernel(kKernel);
  KernelRunner runner(kernel, SimpleInit(40));
  RunConfig config;
  config.compile.num_cores = 2;
  config.tune_by_simulation = false;
  const KernelRun base = runner.Run(config);
  config.seed = 0xABCDEF;
  const KernelRun reseeded1 = runner.Run(config);
  const KernelRun reseeded2 = KernelRunner(kernel, SimpleInit(40)).Run(config);
  // Same seed: bit-identical run.  (Different data may or may not change
  // cycle counts, so only reproducibility is asserted.)
  EXPECT_EQ(reseeded1.seq_cycles, reseeded2.seq_cycles);
  EXPECT_EQ(reseeded1.par_cycles, reseeded2.par_cycles);
  EXPECT_EQ(reseeded1.par_instructions, reseeded2.par_instructions);
  EXPECT_GT(base.seq_cycles, 0u);
}

TEST(RandomKernels, DeterministicInSeed) {
  const RandomKernelCase a = GenerateRandomKernel(123);
  const RandomKernelCase b = GenerateRandomKernel(123);
  EXPECT_EQ(ir::ValidateKernel(a.kernel).size(), 0u);
  EXPECT_EQ(a.kernel.stmt_count(), b.kernel.stmt_count());
  EXPECT_EQ(a.kernel.temps().size(), b.kernel.temps().size());
}

TEST(RandomKernels, VariantsWithoutConditionalsOrReductions) {
  const RandomKernelCase plain =
      GenerateRandomKernel(7, /*with_conditionals=*/false, /*with_reduction=*/false);
  bool has_if = false;
  ir::Kernel::VisitStmts(plain.kernel.loop().body, [&](const ir::Stmt& s) {
    has_if |= s.kind == ir::StmtKind::kIf;
  });
  EXPECT_FALSE(has_if);
  for (const ir::Temp& t : plain.kernel.temps()) {
    EXPECT_FALSE(t.carried);
  }
}

// ---- the runner's memo -----------------------------------------------------

/// AutotuneKernel's base run configuration.
RunConfig TuneBase() {
  RunConfig base;
  base.tune_by_simulation = false;
  return base;
}

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void ExpectSamePrediction(const model::Prediction& a,
                          const model::Prediction& b) {
  EXPECT_EQ(Bits(a.speedup), Bits(b.speedup));
  EXPECT_EQ(Bits(a.sequential_cost), Bits(b.sequential_cost));
  EXPECT_EQ(Bits(a.parallel_cost), Bits(b.parallel_cost));
  const analysis::PartitionFeatures& f = a.features;
  const analysis::PartitionFeatures& g = b.features;
  EXPECT_EQ(f.partitions, g.partitions);
  EXPECT_EQ(Bits(f.total_cost), Bits(g.total_cost));
  EXPECT_EQ(Bits(f.max_part_cost), Bits(g.max_part_cost));
  EXPECT_EQ(Bits(f.min_part_cost), Bits(g.min_part_cost));
  EXPECT_EQ(Bits(f.balance_ratio), Bits(g.balance_ratio));
  EXPECT_EQ(f.cross_edges, g.cross_edges);
  EXPECT_EQ(f.transfers, g.transfers);
  EXPECT_EQ(Bits(f.queue_cost_max), Bits(g.queue_cost_max));
  EXPECT_EQ(Bits(f.bottleneck_cost), Bits(g.bottleneck_cost));
  EXPECT_EQ(Bits(f.critical_path), Bits(g.critical_path));
  EXPECT_EQ(f.scc_partitions, g.scc_partitions);
  EXPECT_EQ(Bits(f.cycle_penalty), Bits(g.cycle_penalty));
}

void ExpectSameRun(const KernelRun& a, const KernelRun& b) {
  EXPECT_EQ(a.kernel_name, b.kernel_name);
  EXPECT_EQ(a.seq_cycles, b.seq_cycles);
  EXPECT_EQ(a.par_cycles, b.par_cycles);
  EXPECT_EQ(Bits(a.speedup), Bits(b.speedup));
  EXPECT_EQ(a.cores_used, b.cores_used);
  EXPECT_EQ(a.initial_fibers, b.initial_fibers);
  EXPECT_EQ(a.data_deps, b.data_deps);
  EXPECT_EQ(Bits(a.load_balance), Bits(b.load_balance));
  EXPECT_EQ(a.com_ops, b.com_ops);
  EXPECT_EQ(a.queues_used, b.queues_used);
  EXPECT_EQ(a.seq_instructions, b.seq_instructions);
  EXPECT_EQ(a.par_instructions, b.par_instructions);
  EXPECT_EQ(a.par_queue_transfers, b.par_queue_transfers);
  EXPECT_EQ(a.max_queue_occupancy, b.max_queue_occupancy);
  EXPECT_EQ(a.fallback_used, b.fallback_used);
  EXPECT_EQ(a.failure_reason, b.failure_reason);
  EXPECT_TRUE(a.threaded_stats == b.threaded_stats);
  EXPECT_EQ(a.native_run, b.native_run);
}

TEST(RunnerMemo, PredictionsEqualRecomputed) {
  // One runner answers the whole default tune space of each Table-I
  // kernel, as AutotuneKernel does; every answer must be the one a fresh
  // runner computes.
  const std::vector<TunePoint> points = TuneSpace{}.Enumerate();
  for (const kernels::SequoiaKernel& spec : kernels::SequoiaKernels()) {
    const ir::Kernel kernel = kernels::ParseSequoia(spec);
    const WorkloadInit init = kernels::SequoiaInit(spec);
    const KernelRunner memoized(kernel, init);
    for (const TunePoint& point : points) {
      SCOPED_TRACE(spec.id + " " + TunePointLabel(point));
      const RunConfig config = ApplyTunePoint(TuneBase(), point);
      ExpectSamePrediction(memoized.Predict(config),
                           KernelRunner(kernel, init).Predict(config));
    }
  }
}

TEST(RunnerMemo, EveryKeyedOptionKeepsItsOwnPrediction) {
  // Each option a memo key holds, moved off the value the runner already
  // answered (the default, or the variant before it for cost_scale, which
  // moves the merge only under a heavier cost weight): the runner must
  // recompute, not reuse.
  const std::vector<std::function<void(RunConfig&)>> variants = {
      [](RunConfig& c) { c.compile.max_expr_depth = 2; },
      [](RunConfig& c) { c.compile.use_profile = false; },
      [](RunConfig& c) { c.collect_profile = false; },
      [](RunConfig& c) { c.cache.l1_latency = 2; },
      [](RunConfig& c) { c.compile.max_channels = 2; },
      [](RunConfig& c) { c.compile.w_deps = 0.0; },
      [](RunConfig& c) { c.compile.w_prox = 0.0; },
      [](RunConfig& c) { c.compile.w_cost = 8.0; },
      [](RunConfig& c) {
        c.compile.w_cost = 8.0;
        c.compile.cost_scale = 2.0;
      },
      [](RunConfig& c) { c.compile.line_scale = 100.0; },
      [](RunConfig& c) { c.compile.balance_cap = 1.0; },
      [](RunConfig& c) { c.compile.assumed_transfer_latency = 40; },
  };
  for (const std::string id : {"lammps-3", "umt2k-6"}) {
    const kernels::SequoiaKernel& spec = kernels::SequoiaKernelById(id);
    const ir::Kernel kernel = kernels::ParseSequoia(spec);
    const WorkloadInit init = kernels::SequoiaInit(spec);
    const KernelRunner memoized(kernel, init);
    (void)memoized.Predict(TuneBase());
    for (std::size_t v = 0; v < variants.size(); ++v) {
      SCOPED_TRACE(id + " variant " + std::to_string(v));
      RunConfig config = TuneBase();
      variants[v](config);
      ExpectSamePrediction(memoized.Predict(config),
                           KernelRunner(kernel, init).Predict(config));
    }
  }
}

TEST(RunnerMemo, FrontierRunsEqualRecomputed) {
  // lammps-1 has an @speculate branch, irs-1 none.  One runner runs each
  // kernel's tune frontier, where programs and machines repeat.
  for (const std::string id : {"lammps-1", "irs-1"}) {
    const kernels::SequoiaKernel& spec = kernels::SequoiaKernelById(id);
    const ir::Kernel kernel = kernels::ParseSequoia(spec);
    const WorkloadInit init = kernels::SequoiaInit(spec);
    TuneOptions options;
    options.sweep_threads = 1;
    const TuneResult tuned =
        AutotuneKernel(kernel, init, TuneSpace{}, options);
    const KernelRunner memoized(kernel, init);
    int frontier = 0;
    for (const TuneCandidate& candidate : tuned.candidates) {
      if (!candidate.simulated) {
        continue;
      }
      ++frontier;
      SCOPED_TRACE(id + " " + TunePointLabel(candidate.point));
      const RunConfig config = ApplyTunePoint(TuneBase(), candidate.point);
      ExpectSameRun(memoized.Run(config), KernelRunner(kernel, init).Run(config));
    }
    EXPECT_EQ(frontier, 13) << id;
  }
}

TEST(RunnerMemo, SeedAndTierKeepTheirOwnEntries) {
  // The same program and machine under another workload seed or run tier
  // is another memo entry: the seed changes the loaded data (and here the
  // cycles), the tier changes the threaded stats.
  const kernels::SequoiaKernel& spec = kernels::SequoiaKernelById("lammps-1");
  const ir::Kernel kernel = kernels::ParseSequoia(spec);
  const WorkloadInit init = kernels::SequoiaInit(spec);
  const KernelRunner memoized(kernel, init);
  RunConfig config = TuneBase();
  config.compile.num_cores = 2;
  const KernelRun first = memoized.Run(config);
  config.seed = 7;
  const KernelRun reseeded = memoized.Run(config);
  EXPECT_NE(reseeded.seq_cycles, first.seq_cycles);
  ExpectSameRun(reseeded, KernelRunner(kernel, init).Run(config));
  config.force_tier = sim::RunTier::kSlow;
  const KernelRun slow = memoized.Run(config);
  EXPECT_FALSE(slow.threaded_stats == reseeded.threaded_stats);
  ExpectSameRun(slow, KernelRunner(kernel, init).Run(config));
}

TEST(RunnerMemo, TelemetryRunStillSimulates) {
  const kernels::SequoiaKernel& spec = kernels::SequoiaKernelById("lammps-1");
  KernelRunner runner(kernels::ParseSequoia(spec), kernels::SequoiaInit(spec));
  RunConfig config = TuneBase();
  config.compile.num_cores = 2;
  const KernelRun plain = runner.Run(config);
  telemetry::AggregatingSink sink;
  config.telemetry = &sink;
  const KernelRun traced = runner.Run(config);
  // The sink saw the parallel run issue every instruction.
  EXPECT_EQ(sink.SimCount(telemetry::SimEventKind::kIssue),
            plain.par_instructions);
  EXPECT_EQ(traced.seq_cycles, plain.seq_cycles);
  EXPECT_EQ(traced.par_cycles, plain.par_cycles);
  EXPECT_EQ(traced.par_instructions, plain.par_instructions);
}

TEST(RunnerMemo, FailedRunIsNeverStored) {
  const kernels::SequoiaKernel& spec = kernels::SequoiaKernelById("lammps-1");
  KernelRunner runner(kernels::ParseSequoia(spec), kernels::SequoiaInit(spec));
  RunConfig config = TuneBase();
  config.max_cycles = 50;
  int failures = 0;
  config.on_failure = [&](const sim::Machine& machine, const Error&) {
    EXPECT_EQ(machine.now(), 50u);
    ++failures;
  };
  for (int attempt = 1; attempt <= 2; ++attempt) {
    EXPECT_THROW(runner.Run(config), sim::CycleBudgetError);
    EXPECT_EQ(failures, attempt);
  }
}

}  // namespace
}  // namespace fgpar::harness
