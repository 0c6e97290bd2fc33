// Tests for the harness: the verifying runner, configuration plumbing, and
// cross-machine correctness (SMT topologies, tuned vs static compilation).
#include <gtest/gtest.h>

#include <bit>

#include "harness/random_kernel.hpp"
#include "harness/runner.hpp"
#include "frontend/parser.hpp"
#include "ir/builder.hpp"
#include "ir/validate.hpp"
#include "kernels/sequoia.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace fgpar::harness {
namespace {

WorkloadInit SimpleInit(std::int64_t trip) {
  return [trip](std::uint64_t /*seed*/, const ir::Kernel& kernel,
                const ir::DataLayout& layout, ir::ParamEnv& params,
                std::vector<std::uint64_t>& memory) {
    Rng rng(42);
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
  // two identical runs must agree cycle-for-cycle.
  KernelRunner runner(frontend::ParseKernel(kKernel), SimpleInit(40));
  RunConfig config;
  config.compile.num_cores = 4;
  const KernelRun a = runner.Run(config);
  const KernelRun b = runner.Run(config);
  EXPECT_EQ(a.seq_cycles, b.seq_cycles);
  EXPECT_EQ(a.par_cycles, b.par_cycles);
  EXPECT_EQ(a.par_instructions, b.par_instructions);
  EXPECT_EQ(a.par_queue_transfers, b.par_queue_transfers);
  EXPECT_EQ(a.com_ops, b.com_ops);
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

}  // namespace
}  // namespace fgpar::harness
