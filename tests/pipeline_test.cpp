// Pass-manager tests.
//
// Three properties of the instrumented pipeline (pipeline.hpp):
//   1. Composition is locked: the scalar rewrite ordering is defined once
//      (AddScalarRewritePasses) and shared by the sequential, parallel, and
//      rewrite pipelines — a reordering is a test failure, not a silent
//      behaviour change.
//   2. Every Sequoia kernel compiles through the full pipeline with
//      ir::CheckValid after every IR-mutating pass, and the telemetry
//      span stream records every pass.
//   3. The manager — not a downstream crash — catches a broken pass, and
//      the error names the offending pass.  Likewise the select stage's
//      aggregate diagnostic lists every rejected candidate.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "compiler/cost_model.hpp"
#include "compiler/pipeline.hpp"
#include "frontend/parser.hpp"
#include "ir/layout.hpp"
#include "ir/validate.hpp"
#include "kernels/sequoia.hpp"
#include "support/error.hpp"
#include "support/telemetry/sinks.hpp"

namespace fgpar::compiler {
namespace {

constexpr const char* kTinyKernel = R"(
kernel tiny {
  param i64 n;
  array f64 a[64];
  array f64 b[64];
  loop i = 0 .. n {
    f64 v = a[i] * 2.0;
    b[i] = v + a[i];
  }
}
)";

std::vector<std::string> Concat(std::vector<std::string> head,
                                std::initializer_list<const char*> tail) {
  for (const char* name : tail) {
    head.emplace_back(name);
  }
  return head;
}

// ---- 1. composition locks -------------------------------------------------

TEST(PipelineComposition, ScalarOrderingIsLocked) {
  CompileOptions options;
  const std::vector<std::string> scalar = {"split", "fold", "forward", "dce"};
  EXPECT_EQ(ScalarRewritePassNames(options, /*parallel=*/false), scalar);
  EXPECT_EQ(ScalarRewritePassNames(options, /*parallel=*/true), scalar);

  options.speculation = true;
  // Speculation slots between folding and store-forwarding, and only in
  // parallel pipelines: the sequential baseline never speculates.
  const std::vector<std::string> speculative = {"split", "fold", "speculate",
                                                "forward", "dce"};
  EXPECT_EQ(ScalarRewritePassNames(options, /*parallel=*/true), speculative);
  EXPECT_EQ(ScalarRewritePassNames(options, /*parallel=*/false), scalar);
}

TEST(PipelineComposition, PipelinesShareTheScalarPrefix) {
  CompileOptions options;
  options.speculation = true;

  const std::vector<std::string> scalar =
      ScalarRewritePassNames(options, /*parallel=*/true);
  EXPECT_EQ(BuildRewritePipeline(options).PassNames(),
            Concat(scalar, {"fiberize"}));
  EXPECT_EQ(BuildParallelPipeline(options).PassNames(),
            Concat(scalar, {"fiberize", "graph", "merge", "select"}));
  EXPECT_EQ(BuildSequentialPipeline(options).PassNames(),
            Concat(ScalarRewritePassNames(options, /*parallel=*/false),
                   {"lower"}));
}

TEST(PipelineComposition, DuplicatePassNamesAreRejected) {
  PassManager manager("dup");
  manager.Add(MakeSplitPass());
  EXPECT_THROW(manager.Add(MakeSplitPass()), Error);
}

TEST(PipelineComposition, DescribeListsEveryPass) {
  const PassManager manager = BuildParallelPipeline(CompileOptions{});
  const std::string description = manager.Describe();
  for (const std::string& name : manager.PassNames()) {
    EXPECT_NE(description.find(name), std::string::npos) << name;
  }
}

// ---- 2. every kernel through the instrumented pipeline --------------------

TEST(PipelineAllKernels, EverySequoiaKernelCompilesWithPerPassValidation) {
  for (const kernels::SequoiaKernel& spec : kernels::SequoiaKernels()) {
    const ir::Kernel kernel = kernels::ParseSequoia(spec);
    const ir::DataLayout layout(kernel);
    for (const bool speculation : {false, true}) {
      for (const bool throughput : {false, true}) {
        for (const int cores : {2, 4}) {
          CompileOptions options;
          options.num_cores = cores;
          options.speculation = speculation;
          options.throughput_heuristic = throughput;

          telemetry::AggregatingSink sink;
          PipelineInstrumentation instrumentation;
          instrumentation.telemetry = &sink;

          const CompiledParallel compiled =
              CompileParallel(kernel, layout, options, /*profile=*/nullptr,
                              /*cost_model=*/nullptr, &instrumentation);
          SCOPED_TRACE(spec.id + " cores=" + std::to_string(cores));
          EXPECT_GE(compiled.cores_used, 1);
          EXPECT_GT(compiled.program.size(), 0u);
          const std::vector<telemetry::SpanRecord> pipelines =
              sink.SpansInCategory("pipeline");
          ASSERT_EQ(pipelines.size(), 1u);
          EXPECT_EQ(pipelines.front().name, "parallel");
          const std::vector<telemetry::SpanRecord> pass_spans =
              sink.SpansInCategory("pass");
          ASSERT_EQ(pass_spans.size(),
                    BuildParallelPipeline(options).PassNames().size());
          // Rewrites only shrink-or-grow through recorded deltas; the
          // span stream must cover every pass in order, each span
          // carrying the reserved IR-delta counters.
          const std::vector<std::string> names =
              BuildParallelPipeline(options).PassNames();
          for (std::size_t p = 0; p < names.size(); ++p) {
            EXPECT_EQ(pass_spans[p].name, names[p]);
            EXPECT_EQ(pass_spans[p].counters.count("stmts_before"), 1u);
            EXPECT_EQ(pass_spans[p].counters.count("stmts_after"), 1u);
          }
        }
      }
    }

    telemetry::AggregatingSink sink;
    PipelineInstrumentation instrumentation;
    instrumentation.telemetry = &sink;
    const isa::Program sequential =
        CompileSequential(kernel, layout, CompileOptions{}, &instrumentation);
    EXPECT_GT(sequential.size(), 0u) << spec.id;
    const std::vector<telemetry::SpanRecord> pipelines =
        sink.SpansInCategory("pipeline");
    ASSERT_EQ(pipelines.size(), 1u);
    EXPECT_EQ(pipelines.front().name, "sequential");
    EXPECT_EQ(sink.SpansInCategory("pass").back().name, "lower");
  }
}

TEST(PipelineInstrumentationTest, DumpAfterAllFiresOncePerPass) {
  const ir::Kernel kernel = frontend::ParseKernel(kTinyKernel);
  const ir::DataLayout layout(kernel);
  std::vector<std::string> dumped;
  PipelineInstrumentation instrumentation;
  instrumentation.dump_after = "all";
  instrumentation.dump_sink = [&](const std::string& pass,
                                  const std::string& text) {
    EXPECT_NE(text.find("kernel tiny"), std::string::npos);
    dumped.push_back(pass);
  };
  CompileParallel(kernel, layout, CompileOptions{}, nullptr, nullptr,
                  &instrumentation);
  EXPECT_EQ(dumped, BuildParallelPipeline(CompileOptions{}).PassNames());

  dumped.clear();
  instrumentation.dump_after = "fiberize";
  CompileParallel(kernel, layout, CompileOptions{}, nullptr, nullptr,
                  &instrumentation);
  EXPECT_EQ(dumped, std::vector<std::string>{"fiberize"});
}

// ---- 3. failures are caught and attributed --------------------------------

/// Test-only pass: points a statement at an out-of-range expression.
class ClobberPass : public Pass {
 public:
  const char* name() const override { return "clobber"; }
  const char* description() const override {
    return "test-only: corrupts the IR";
  }
  bool mutates_ir() const override { return true; }
  void Run(CompileState& state) override {
    state.kernel().mutable_loop().body.front().value = 999999;
  }
};

/// Test-only pass: leaves the IR alone but declares an impossible invariant.
class LyingPass : public Pass {
 public:
  const char* name() const override { return "lying"; }
  const char* description() const override {
    return "test-only: invariant always fails";
  }
  void Run(CompileState&) override {}
  void CheckInvariants(const CompileState&) const override {
    throw Error("the moon is full");
  }
};

TEST(PipelineValidation, BrokenPassIsCaughtByTheManagerAndAttributed) {
  const ir::Kernel kernel = frontend::ParseKernel(kTinyKernel);
  PassManager manager("test");
  manager.Add(std::make_unique<ClobberPass>());
  CompileState state(kernel, /*layout=*/nullptr, CompileOptions{});
  try {
    manager.Run(state);
    FAIL() << "manager accepted invalid IR";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("pass 'clobber'"), std::string::npos) << message;
    EXPECT_NE(message.find("produced invalid IR"), std::string::npos)
        << message;
  }
}

TEST(PipelineValidation, InvariantViolationIsAttributed) {
  const ir::Kernel kernel = frontend::ParseKernel(kTinyKernel);
  PassManager manager("test");
  manager.Add(std::make_unique<LyingPass>());
  CompileState state(kernel, /*layout=*/nullptr, CompileOptions{});
  try {
    manager.Run(state);
    FAIL() << "manager ignored a violated invariant";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("pass 'lying'"), std::string::npos) << message;
    EXPECT_NE(message.find("violated its invariants"), std::string::npos)
        << message;
    EXPECT_NE(message.find("the moon is full"), std::string::npos) << message;
  }
}

TEST(PipelineValidation, SelectStageReportsEveryRejectedCandidate) {
  const kernels::SequoiaKernel& spec = kernels::SequoiaKernels().front();
  const ir::Kernel kernel = kernels::ParseSequoia(spec);
  const ir::DataLayout layout(kernel);
  CompileOptions options;
  options.num_cores = 4;
  // A cost model that refuses every candidate forces the multi-version
  // loop to exhaust its set; the aggregate error must list each rejection,
  // not just the last one.
  class RejectAll final : public CostModel {
   public:
    std::string_view name() const override { return "reject"; }
    ScoredCandidate Score(const CompileState&, const isa::Program&,
                          const ProgramPlan&,
                          const CoreAssignment&) const override {
      throw Error("training workload refused this candidate");
    }
  };
  const RejectAll reject_all;
  try {
    CompileParallel(kernel, layout, options, nullptr, &reject_all);
    FAIL() << "expected every candidate to be rejected";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no candidate partitioning compiled successfully"),
              std::string::npos)
        << message;
    // Every candidate appears, numbered i/N.
    EXPECT_NE(message.find("candidate 1/"), std::string::npos) << message;
    EXPECT_NE(message.find("candidate 2/"), std::string::npos) << message;
    EXPECT_NE(message.find("training workload refused"), std::string::npos)
        << message;
  }
}

}  // namespace
}  // namespace fgpar::compiler
