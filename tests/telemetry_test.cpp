// Tests for the telemetry spine (support/telemetry/):
//
//  * trace neutrality — installing a sink must not change a single
//    deterministic number: for every Table-I kernel, a traced run's
//    encoded KernelRun is byte-identical to the untraced fast-path run's
//    (the traced machine takes the instrumented reference loop, so this
//    is also a fast/slow equivalence check), and the issue-event count
//    matches the measured parallel instruction count;
//  * the counter registry (named counts/metrics with artifact
//    visibility);
//  * span semantics (RAII completion, emission on unwinding, Note
//    counters);
//  * the concrete sinks: aggregation, stream re-stamping, and
//    deterministic Chrome-trace rendering;
//  * the sweep supervisor's attempt spans.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/supervisor.hpp"
#include "kernels/experiments.hpp"
#include "support/error.hpp"
#include "support/telemetry/sinks.hpp"
#include "support/telemetry/telemetry.hpp"

namespace fgpar::telemetry {
namespace {

// ---- trace neutrality across every kernel ---------------------------------

TEST(TraceNeutrality, EveryKernelBitIdenticalWithSinkInstalled) {
  kernels::ExperimentConfig experiment;
  experiment.cores = 4;
  for (const kernels::SequoiaKernel& spec : kernels::SequoiaKernels()) {
    SCOPED_TRACE(spec.id);
    harness::RunConfig untraced = kernels::ToRunConfig(experiment);
    const harness::KernelRun baseline = kernels::RunKernel(spec, untraced);

    AggregatingSink sink;
    harness::RunConfig traced = kernels::ToRunConfig(experiment);
    traced.telemetry = &sink;
    const harness::KernelRun observed = kernels::RunKernel(spec, traced);

    // Byte-identical deterministic results: the encoded payload covers
    // every cycle/instruction/queue/stall-derived field of the run.
    EXPECT_EQ(harness::EncodeKernelRun(observed),
              harness::EncodeKernelRun(baseline));
    // The trace itself is consistent: exactly one issue event per
    // measured parallel instruction (the golden model, the sequential
    // baseline, and tuning runs stay untraced).
    EXPECT_EQ(sink.SimCount(SimEventKind::kIssue), baseline.par_instructions);
    // The compile emitted its pipeline/pass spans through the same sink.
    EXPECT_FALSE(sink.SpansInCategory("pass").empty());
    EXPECT_EQ(sink.SpansInCategory("pipeline").size(), 1u);
  }
}

// ---- counter registry ------------------------------------------------------

TEST(CounterRegistry, NamedAccessAndArtifactVisibility) {
  CounterRegistry registry;
  registry.Count("visible", 7);
  registry.Count("hidden", 9, /*artifact=*/false);
  registry.Metric("speed", 1.5);

  EXPECT_EQ(registry.count("visible"), 7u);
  EXPECT_EQ(registry.count("hidden"), 9u);
  EXPECT_DOUBLE_EQ(registry.metric("speed"), 1.5);
  EXPECT_TRUE(registry.HasCount("hidden"));
  EXPECT_FALSE(registry.HasCount("absent"));
  EXPECT_THROW(registry.count("absent"), Error);
  EXPECT_THROW(registry.metric("absent"), Error);

  std::vector<std::string> artifact_counts;
  registry.ForEachArtifactCount(
      [&](const std::string& name, std::uint64_t) {
        artifact_counts.push_back(name);
      });
  EXPECT_EQ(artifact_counts, std::vector<std::string>{"visible"});
}

TEST(CounterRegistry, KernelRunRegistryMatchesStructFields) {
  harness::KernelRun run;
  run.kernel_name = "x";
  run.seq_cycles = 100;
  run.par_cycles = 50;
  run.speedup = 2.0;
  run.cores_used = 4;
  run.initial_fibers = 3;
  run.load_balance = 1.25;
  const CounterRegistry registry = harness::KernelRunTelemetry(run);
  EXPECT_EQ(registry.count("seq_cycles"), 100u);
  EXPECT_EQ(registry.count("par_cycles"), 50u);
  EXPECT_DOUBLE_EQ(registry.metric("speedup"), 2.0);
  EXPECT_DOUBLE_EQ(registry.metric("load_balance"), 1.25);
  EXPECT_EQ(registry.count("cores_used"), 4u);
  // Diagnostic-only entries are readable but never reach artifacts.
  EXPECT_EQ(registry.count("initial_fibers"), 3u);
  bool saw_initial_fibers = false;
  registry.ForEachArtifactCount(
      [&](const std::string& name, std::uint64_t) {
        saw_initial_fibers |= name == "initial_fibers";
      });
  EXPECT_FALSE(saw_initial_fibers);
}

// ---- span semantics --------------------------------------------------------

TEST(ScopedSpanTest, CompletesWithCountersAndCategory) {
  AggregatingSink sink;
  {
    ScopedSpan span(&sink, "phase", "work", /*stream=*/3);
    span.Note("items", 12);
  }
  const std::vector<SpanRecord> spans = sink.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].category, "phase");
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].stream, 3);
  EXPECT_GE(spans[0].wall_seconds, 0.0);
  EXPECT_EQ(spans[0].counters.at("items"), 12);
}

TEST(ScopedSpanTest, EmitsDuringExceptionUnwinding) {
  AggregatingSink sink;
  try {
    ScopedSpan span(&sink, "phase", "doomed");
    throw Error("boom");
  } catch (const Error&) {
  }
  ASSERT_EQ(sink.Spans().size(), 1u);
  EXPECT_EQ(sink.Spans()[0].name, "doomed");
}

TEST(ScopedSpanTest, NullSinkIsFreeAndSilent) {
  ScopedSpan span(nullptr, "phase", "nothing");
  span.Note("ignored", 1);
  // Destruction must not crash; there is nothing to observe.
}

// ---- sinks -----------------------------------------------------------------

SimEvent IssueAt(std::uint64_t cycle, int core, std::int64_t pc) {
  SimEvent event;
  event.kind = SimEventKind::kIssue;
  event.cycle = cycle;
  event.core = core;
  event.pc = pc;
  event.name = "addi";
  return event;
}

TEST(StreamSinkTest, RestampsTheStreamLane) {
  AggregatingSink inner;
  StreamSink lane(&inner, 5);
  {
    ScopedSpan span(&lane, "phase", "inner-span");
  }
  ASSERT_EQ(inner.Spans().size(), 1u);
  EXPECT_EQ(inner.Spans()[0].stream, 5);  // 0 at emission, re-stamped to 5
  SimEvent event = IssueAt(1, 0, 0);
  event.stream = 99;
  lane.OnSim(event);
  EXPECT_EQ(inner.SimCount(SimEventKind::kIssue), 1u);
}

TEST(ChromeTraceSinkTest, RenderIsDeterministicForSimEvents) {
  const auto render = [] {
    ChromeTraceSink sink(/*include_host=*/false);
    sink.OnSim(IssueAt(1, 0, 0));
    SimEvent stall;
    stall.kind = SimEventKind::kStallEnd;
    stall.cycle = 9;
    stall.begin_cycle = 4;
    stall.core = 1;
    stall.cause = StallCause::kQueueEmpty;
    sink.OnSim(stall);
    return sink.Render();
  };
  const std::string first = render();
  EXPECT_EQ(first, render());
  EXPECT_NE(first.find("\"fgpar-trace-v1\""), std::string::npos);
  EXPECT_NE(first.find("stall:queue_empty"), std::string::npos);
  // Host track metadata is absent when no span was recorded.
  EXPECT_EQ(first.find("\"host\""), std::string::npos);
}

TEST(ChromeTraceSinkTest, HostSpansDroppedWhenSuppressed) {
  ChromeTraceSink sink(/*include_host=*/false);
  {
    ScopedSpan span(&sink, "phase", "hidden");
  }
  EXPECT_EQ(sink.Render().find("hidden"), std::string::npos);
}

// ---- supervisor attempt spans ----------------------------------------------

TEST(SupervisorTelemetry, AttemptSpansLandOnPointAndRetryCategories) {
  AggregatingSink sink;
  harness::SupervisorConfig config;
  config.name = "spans";
  config.labels = {"p0"};
  config.sweep_threads = 1;
  config.max_retries = 2;
  config.telemetry = &sink;
  harness::SweepSupervisor supervisor(config);
  int calls = 0;
  const harness::SweepOutcome outcome =
      supervisor.Run([&](const harness::PointContext&) -> std::string {
        if (++calls < 3) {
          throw Error("fail twice");
        }
        return "payload";
      });
  EXPECT_TRUE(outcome.failures.empty());
  ASSERT_EQ(sink.SpansInCategory("point").size(), 1u);
  EXPECT_EQ(sink.SpansInCategory("retry").size(), 2u);
  EXPECT_EQ(sink.SpansInCategory("point")[0].name, "p0");
  EXPECT_EQ(sink.SpansInCategory("retry")[0].counters.at("attempt"), 1);
}

}  // namespace
}  // namespace fgpar::telemetry
