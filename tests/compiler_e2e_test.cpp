// End-to-end compiler tests: every kernel is executed three ways — the
// reference interpreter, the compiled sequential program, and the compiled
// fine-grained parallel program on 2 and 4 cores — and all memory must be
// bit-identical.  This is the test that proves the whole Section III
// pipeline (fibers, merging, outlining, communication insertion, branch
// replication, speculation, runtime dispatch) preserves semantics.
#include <gtest/gtest.h>

#include <bit>

#include "frontend/parser.hpp"
#include "harness/random_kernel.hpp"
#include "harness/runner.hpp"
#include "kernels/experiments.hpp"
#include "kernels/sequoia.hpp"
#include "support/rng.hpp"

namespace fgpar::harness {
namespace {

/// Default workload: deterministic pseudo-random doubles in [0.5, 2), index
/// arrays in range, all i64 params = the named loop trip bound.
WorkloadInit DefaultInit(std::uint64_t seed, std::int64_t int_param_value) {
  return [seed, int_param_value](std::uint64_t /*run_seed*/,
                                 const ir::Kernel& kernel,
                                 const ir::DataLayout& layout, ir::ParamEnv& params,
                                 std::vector<std::uint64_t>& memory) {
    Rng rng(seed);
    for (const ir::Symbol& sym : kernel.symbols()) {
      switch (sym.kind) {
        case ir::SymbolKind::kParam:
          if (sym.type == ir::ScalarType::kF64) {
            params.SetF64(sym.id, rng.NextDouble(0.5, 2.0));
          } else {
            params.SetI64(sym.id, int_param_value);
          }
          break;
        case ir::SymbolKind::kArray: {
          const std::uint64_t base = layout.AddressOf(sym.id);
          for (std::int64_t i = 0; i < sym.array_size; ++i) {
            if (sym.type == ir::ScalarType::kF64) {
              memory[base + static_cast<std::uint64_t>(i)] =
                  std::bit_cast<std::uint64_t>(rng.NextDouble(0.5, 2.0));
            } else {
              memory[base + static_cast<std::uint64_t>(i)] =
                  static_cast<std::uint64_t>(rng.NextInt(0, sym.array_size - 1));
            }
          }
          break;
        }
        case ir::SymbolKind::kScalar:
          break;
      }
    }
  };
}

KernelRun RunOn(const char* source, int cores, bool speculation = false,
                std::int64_t trip = 30) {
  ir::Kernel kernel = frontend::ParseKernel(source);
  KernelRunner runner(kernel, DefaultInit(0xBEEF, trip));
  RunConfig config;
  config.compile.num_cores = cores;
  config.compile.speculation = speculation;
  return runner.Run(config);
}

// ---- basic shapes ----

constexpr const char* kAxpy = R"(
kernel axpy {
  param f64 alpha;
  param i64 n;
  array f64 x[32];
  array f64 y[32];
  loop i = 0 .. n {
    y[i] = alpha * x[i] + y[i];
  }
}
)";

TEST(EndToEnd, AxpyTwoCores) {
  const KernelRun run = RunOn(kAxpy, 2);
  EXPECT_GT(run.seq_cycles, 0u);
  EXPECT_GT(run.par_cycles, 0u);
}

TEST(EndToEnd, AxpyFourCores) {
  const KernelRun run = RunOn(kAxpy, 4);
  EXPECT_LE(run.cores_used, 4);
}

constexpr const char* kWideIndependent = R"(
kernel wide {
  param f64 c;
  param i64 n;
  array f64 a[40];
  array f64 o1[40];
  array f64 o2[40];
  array f64 o3[40];
  array f64 o4[40];
  loop i = 2 .. n {
    o1[i] = (a[i] * c + a[i-1]) * (a[i] - c);
    o2[i] = sqrt(abs(a[i] * 3.0 + 1.0)) + a[i-2] * c;
    o3[i] = a[i] / (abs(a[i-1]) + 1.0) + c * c;
    o4[i] = max(a[i], a[i-1]) * min(a[i], a[i-2]) + 0.5;
  }
}
)";

TEST(EndToEnd, WideIndependentWorkSpeedsUpOnFourCores) {
  const KernelRun run = RunOn(kWideIndependent, 4);
  EXPECT_EQ(run.cores_used, 4);
  // Four independent statement chains must actually get faster.
  EXPECT_GT(run.speedup, 1.2);
}

TEST(EndToEnd, WideIndependentTwoCoreSpeedupIsSmaller) {
  const KernelRun run4 = RunOn(kWideIndependent, 4);
  const KernelRun run2 = RunOn(kWideIndependent, 2);
  EXPECT_GT(run4.speedup, run2.speedup * 0.95);
}

// ---- reductions ----

constexpr const char* kDotAndMore = R"(
kernel dotplus {
  param i64 n;
  array f64 a[40];
  array f64 b[40];
  array f64 o[40];
  scalar f64 dot;
  carried f64 sum = 0.0;
  loop i = 0 .. n {
    f64 prod = a[i] * b[i];
    sum = sum + prod;
    o[i] = prod * 2.0 + a[i] / (b[i] + 1.0);
  }
  after {
    dot = sum;
  }
}
)";

TEST(EndToEnd, ReductionWithLiveOut) {
  const KernelRun run = RunOn(kDotAndMore, 4);
  EXPECT_GT(run.seq_cycles, 0u);
}

// ---- conditionals ----

constexpr const char* kConditional = R"(
kernel cond {
  param i64 n;
  array f64 a[40];
  array f64 o[40];
  array f64 p[40];
  loop i = 0 .. n {
    f64 v = a[i] * 2.0 + 1.0;
    f64 w = sqrt(abs(a[i])) * 3.0;
    if (v < 2.5) {
      o[i] = v + w;
    } else {
      o[i] = v - w;
    }
    p[i] = w * v;
  }
}
)";

TEST(EndToEnd, ConditionalReplication2) {
  const KernelRun run = RunOn(kConditional, 2);
  EXPECT_GT(run.seq_cycles, 0u);
}

TEST(EndToEnd, ConditionalReplication4) {
  const KernelRun run = RunOn(kConditional, 4);
  EXPECT_GT(run.seq_cycles, 0u);
}

constexpr const char* kNestedConditional = R"(
kernel nested {
  param i64 n;
  array f64 a[40];
  array f64 o[40];
  loop i = 0 .. n {
    f64 v = a[i] * 2.0;
    if (v < 2.0) {
      if (v < 1.5) {
        o[i] = v * 10.0;
      } else {
        o[i] = v * 20.0;
      }
    } else {
      o[i] = v * 30.0;
    }
  }
}
)";

TEST(EndToEnd, NestedConditionals) {
  const KernelRun run = RunOn(kNestedConditional, 4);
  EXPECT_GT(run.seq_cycles, 0u);
}

constexpr const char* kConditionalReduction = R"(
kernel condred {
  param i64 n;
  array f64 a[40];
  scalar f64 out;
  carried f64 acc = 0.0;
  loop i = 0 .. n {
    f64 v = a[i] * a[i];
    if (v < 2.0) {
      acc = acc + v;
    }
  }
  after {
    out = acc;
  }
}
)";

TEST(EndToEnd, ConditionalReduction) {
  const KernelRun run = RunOn(kConditionalReduction, 4);
  EXPECT_GT(run.seq_cycles, 0u);
}

// ---- speculation ----

constexpr const char* kSpeculation = R"(
kernel spec {
  param i64 n;
  array f64 a[40];
  array f64 o[40];
  loop i = 0 .. n {
    f64 cndval = a[i] * a[i] + a[i];
    @speculate if (cndval < 2.0) {
      f64 t2 = sqrt(abs(a[i] * 3.0)) + a[i] / (a[i] + 1.0);
      o[i] = t2;
    } else {
      f64 t3 = a[i] * a[i] * a[i] + 2.0 * a[i];
      o[i] = t3;
    }
  }
}
)";

TEST(EndToEnd, SpeculationOffIsCorrect) {
  const KernelRun run = RunOn(kSpeculation, 4, /*speculation=*/false);
  EXPECT_GT(run.seq_cycles, 0u);
}

TEST(EndToEnd, SpeculationOnIsCorrect) {
  const KernelRun run = RunOn(kSpeculation, 4, /*speculation=*/true);
  EXPECT_GT(run.seq_cycles, 0u);
}

TEST(EndToEnd, SpeculationHelpsThisShape) {
  const KernelRun off = RunOn(kSpeculation, 4, /*speculation=*/false);
  const KernelRun on = RunOn(kSpeculation, 4, /*speculation=*/true);
  // Both arms' compute can run ahead of the condition; allow a little noise
  // but speculation should not be slower.
  EXPECT_GE(on.speedup, off.speedup * 0.95);
}

// ---- gathers (non-affine loads) ----

constexpr const char* kGather = R"(
kernel gather {
  param i64 n;
  array f64 a[40];
  array i64 idx[40];
  array f64 o[40];
  loop i = 0 .. n {
    f64 g = a[idx[i]] * 2.0;
    o[i] = g + a[i] * 0.5;
  }
}
)";

TEST(EndToEnd, GatherLoads) {
  const KernelRun run = RunOn(kGather, 4);
  EXPECT_GT(run.seq_cycles, 0u);
}

// ---- pipelined dependence chain (Figure 2 shape) ----

constexpr const char* kPipeline = R"(
kernel pipe {
  param i64 n;
  array f64 a[40];
  array f64 o[40];
  loop i = 0 .. n {
    f64 s1 = a[i] * 2.0 + 1.0;
    f64 s2 = s1 * s1 - a[i];
    f64 s3 = s2 / (abs(s1) + 1.0);
    o[i] = s3 * s2 + s1;
  }
}
)";

TEST(EndToEnd, PipelinedChain) {
  const KernelRun run = RunOn(kPipeline, 3);
  EXPECT_GT(run.seq_cycles, 0u);
}

// ---- statistics plumbing ----

TEST(EndToEnd, StatsAreConsistent) {
  const KernelRun run = RunOn(kWideIndependent, 4);
  EXPECT_GT(run.initial_fibers, 0);
  EXPECT_GE(run.load_balance, 1.0);
  EXPECT_GE(run.queues_used, 0);
  // Every static loop transfer happens at least once dynamically.
  EXPECT_GE(run.par_queue_transfers,
            static_cast<std::uint64_t>(run.com_ops));
}

TEST(EndToEnd, ZeroIterationLoop) {
  const KernelRun run = RunOn(kAxpy, 4, false, /*trip=*/0);
  EXPECT_GT(run.seq_cycles, 0u);  // still dispatches and joins correctly
}

TEST(EndToEnd, SingleIterationLoop) {
  const KernelRun run = RunOn(kAxpy, 4, false, /*trip=*/1);
  EXPECT_GT(run.seq_cycles, 0u);
}

// ---- a dequeue ahead of a replicated if on its queue ----
// In each compile below, a replicated if early in a block dequeues a value
// produced after one the block dequeues at a later first use.  That
// dequeue must go before the if: at its first use it would take the two
// values in the opposite order to the producer's enqueues, and the pairing
// check would reject the plan.

TEST(EndToEnd, DequeueAheadOfIfOnItsQueueRandomKernel) {
  const RandomKernelCase random = GenerateRandomKernel(61483);
  KernelRunner runner(random.kernel, random.init);
  const KernelRun run =
      runner.Run(kernels::ToRunConfig(kernels::ExperimentConfig{}));
  EXPECT_EQ(run.cores_used, 4);
}

// fgparc umt2k-4 --cores 3 --throughput, whose plan compile has no profile.
TEST(EndToEnd, DequeueAheadOfIfOnItsQueueUmt2k4) {
  const kernels::SequoiaKernel& spec = kernels::SequoiaKernelById("umt2k-4");
  KernelRunner runner(kernels::ParseSequoia(spec), kernels::SequoiaInit(spec));
  RunConfig config;
  config.compile.num_cores = 3;
  config.compile.throughput_heuristic = true;
  config.collect_profile = false;
  config.tune_by_simulation = false;
  EXPECT_EQ(runner.Run(config).cores_used, 3);
}

// ---- property tests: random programs, triple-checked ----

class RandomProgramProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramProperty, ParallelMatchesGoldenOn2And4Cores) {
  const RandomKernelCase random = GenerateRandomKernel(GetParam());
  KernelRunner runner(random.kernel, random.init);
  for (int cores : {2, 4}) {
    RunConfig config;
    config.compile.num_cores = cores;
    const KernelRun run = runner.Run(config);  // throws on any mismatch
    EXPECT_GT(run.seq_cycles, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

class RandomProgramSpeculationProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramSpeculationProperty, SpeculationPreservesSemantics) {
  const RandomKernelCase random = GenerateRandomKernel(GetParam());
  KernelRunner runner(random.kernel, random.init);
  RunConfig config;
  config.compile.num_cores = 4;
  config.compile.speculation = true;
  const KernelRun run = runner.Run(config);
  EXPECT_GT(run.seq_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramSpeculationProperty,
                         ::testing::Range<std::uint64_t>(100, 115));

class RandomProgramThroughputProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramThroughputProperty, ThroughputHeuristicPreservesSemantics) {
  const RandomKernelCase random = GenerateRandomKernel(GetParam());
  KernelRunner runner(random.kernel, random.init);
  RunConfig config;
  config.compile.num_cores = 4;
  config.compile.throughput_heuristic = true;
  const KernelRun run = runner.Run(config);
  EXPECT_GT(run.seq_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramThroughputProperty,
                         ::testing::Range<std::uint64_t>(200, 212));

class RandomProgramSmtProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramSmtProperty, SmtTopologiesPreserveSemantics) {
  const RandomKernelCase random = GenerateRandomKernel(GetParam());
  KernelRunner runner(random.kernel, random.init);
  RunConfig config;
  config.compile.num_cores = 4;
  config.threads_per_core = 2;
  const KernelRun run = runner.Run(config);
  EXPECT_GT(run.seq_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramSmtProperty,
                         ::testing::Range<std::uint64_t>(300, 312));

}  // namespace
}  // namespace fgpar::harness
