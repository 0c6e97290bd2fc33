// Microbenchmarks (google-benchmark) of the simulator substrate itself:
// raw simulation throughput of the core model, the hardware queues, and
// the cache hierarchy.  These measure the *host* cost of simulation, not
// simulated time — useful for sizing experiment sweeps.
//
// Coverage of the two run tiers (see docs/INTERNALS.md):
//  * BM_CoreIssueThroughputThreaded  — the auto tier, whose fast loop runs
//    hot blocks of a single-core machine as direct-threaded traces;
//  * BM_CoreIssueThroughputSlowPath  — same program on the instrumented
//    reference loop, which steps the core every cycle it is free; the
//    ratio between the two is the single-core tier speedup;
//  * BM_MachineFastForward           — a machine that is mostly idle
//    (long unpipelined latencies on one core, the rest blocked on
//    queues), exercising the jump over idle cycles and the sleeping
//    blocked cores;
//  * BM_QueuePingPong                — queue-bound two-core traffic.
//  * BM_CoreIssueThroughputTraced    — the reference loop with a telemetry
//    sink installed (AggregatingSink), i.e. the cost of emitting one
//    issue event per instruction on top of the slow loop.
//
// A custom main additionally writes BENCH_sim_throughput.json with
// wall-clock simulation rates for the auto tier (the "threaded" row:
// traces on), the slow tier, and the slow loop under each telemetry sink
// (aggregating, Chrome trace), all on the single-core issue loop, plus the
// auto and slow tiers on a four-core fp pipeline, so CI archives
// machine-readable simulator-performance numbers — including the
// threaded-over-slow and multi-core auto-over-slow ratios its perf-smoke
// step asserts on — alongside the figures.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "harness/bench_artifact.hpp"
#include "isa/assembler.hpp"
#include "sim/machine.hpp"
#include "support/error.hpp"
#include "support/telemetry/sinks.hpp"

namespace {

using namespace fgpar;

isa::Program IssueLoopProgram(std::int64_t iterations) {
  // A tight arithmetic loop; measures simulated instructions per host second.
  isa::Assembler a;
  isa::Label main = a.NewNamedLabel("main");
  a.Bind(main);
  a.LiI(isa::Gpr{1}, iterations);
  a.LiI(isa::Gpr{2}, 1);
  a.LiI(isa::Gpr{3}, 0);
  isa::Label top = a.NewLabel();
  a.Bind(top);
  a.AddI(isa::Gpr{3}, isa::Gpr{3}, isa::Gpr{2});
  a.AddI(isa::Gpr{4}, isa::Gpr{3}, isa::Gpr{2});
  a.AddI(isa::Gpr{5}, isa::Gpr{4}, isa::Gpr{2});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top);
  a.Halt();
  return a.Finish();
}

sim::RunResult RunIssueLoop(const isa::Program& program, sim::RunTier tier,
                            telemetry::TelemetrySink* sink = nullptr) {
  sim::MachineConfig config;
  config.num_cores = 1;
  config.memory_words = 1 << 12;
  config.force_tier = tier;
  sim::Machine machine(config, program);
  machine.SetTelemetry(sink);
  machine.StartCoreAt(0, "main");
  return machine.Run();
}

void BM_CoreIssueThroughputThreaded(benchmark::State& state) {
  // The auto tier's traces: the hot loop body runs as one pre-resolved
  // handler chain per iteration (sim/threaded.hpp).
  const isa::Program program = IssueLoopProgram(state.range(0));
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    instructions += RunIssueLoop(program, sim::RunTier::kAuto).instructions;
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreIssueThroughputThreaded)->Arg(1000)->Arg(10000);

void BM_CoreIssueThroughputSlowPath(benchmark::State& state) {
  // The instrumented reference loop on the same program.  Compare against
  // BM_CoreIssueThroughputThreaded for the auto tier's speedup.
  const isa::Program program = IssueLoopProgram(state.range(0));
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    instructions += RunIssueLoop(program, sim::RunTier::kSlow).instructions;
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreIssueThroughputSlowPath)->Arg(1000)->Arg(10000);

void BM_CoreIssueThroughputTraced(benchmark::State& state) {
  // The reference loop with an AggregatingSink installed: one issue event
  // per instruction on top of BM_CoreIssueThroughputSlowPath.  The delta
  // against the slow path is the telemetry emission cost; the delta
  // against the threaded path is the full price of turning tracing on.
  const isa::Program program = IssueLoopProgram(state.range(0));
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    telemetry::AggregatingSink sink;
    instructions +=
        RunIssueLoop(program, sim::RunTier::kAuto, &sink).instructions;
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreIssueThroughputTraced)->Arg(1000)->Arg(10000);

isa::Program FastForwardProgram(std::int64_t rounds, int consumers) {
  // Core 0 grinds through unpipelined divides (32-cycle issue occupancy),
  // then feeds one value to each consumer core; consumers spend almost the
  // whole run blocked on their empty queue.  Most simulated cycles have no
  // issue anywhere — the run loop must fast-forward cheaply.
  isa::Assembler a;
  isa::Label main = a.NewNamedLabel("main");
  a.Bind(main);
  a.LiI(isa::Gpr{1}, rounds);
  a.LiI(isa::Gpr{2}, 1);
  a.LiI(isa::Gpr{3}, 1000000);
  isa::Label top = a.NewLabel();
  a.Bind(top);
  a.DivI(isa::Gpr{4}, isa::Gpr{3}, isa::Gpr{2});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top);
  for (int c = 1; c <= consumers; ++c) {
    a.EnqI(c, isa::Gpr{4});
  }
  a.Halt();
  for (int c = 1; c <= consumers; ++c) {
    isa::Label consumer = a.NewNamedLabel("consumer" + std::to_string(c));
    a.Bind(consumer);
    a.DeqI(0, isa::Gpr{1});
    a.Halt();
  }
  return a.Finish();
}

void BM_MachineFastForward(benchmark::State& state) {
  constexpr int kConsumers = 3;
  const isa::Program program = FastForwardProgram(state.range(0), kConsumers);
  sim::MachineConfig config;
  config.num_cores = 1 + kConsumers;
  config.memory_words = 1 << 12;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    sim::Machine machine(config, program);
    machine.StartCoreAt(0, "main");
    for (int c = 1; c <= kConsumers; ++c) {
      machine.StartCoreAt(c, "consumer" + std::to_string(c));
    }
    cycles += machine.Run().cycles;
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MachineFastForward)->Arg(256)->Arg(1024);

void BM_QueuePingPong(benchmark::State& state) {
  // Two cores bouncing a value; measures queue-op simulation cost.
  isa::Assembler a;
  isa::Label core0 = a.NewNamedLabel("core0");
  isa::Label core1 = a.NewNamedLabel("core1");
  const std::int64_t rounds = state.range(0);

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

  const isa::Program program = a.Finish();
  std::uint64_t transfers = 0;
  for (auto _ : state) {
    sim::MachineConfig config;
    config.num_cores = 2;
    config.memory_words = 1 << 12;
    sim::Machine machine(config, program);
    machine.StartCoreAt(0, "core0");
    machine.StartCoreAt(1, "core1");
    machine.Run();
    transfers += machine.queues().TotalTransfers();
  }
  state.counters["transfers/s"] = benchmark::Counter(
      static_cast<double>(transfers), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QueuePingPong)->Arg(256)->Arg(1024);

void BM_CacheAccess(benchmark::State& state) {
  sim::CacheConfig config;
  sim::MemorySystem memory(config, 1, 1 << 20);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(memory.AccessTimed(0, addr & ((1 << 20) - 1), false));
    addr += 17;
  }
}
BENCHMARK(BM_CacheAccess);

/// A four-core pipeline shaped like the compiled kernels: each iteration,
/// every core loads two fp values, multiplies them and adds the product
/// into its running sum; cores 1-3 send their sums to core 0, which adds
/// all three in and stores the total.  Loads miss the caches regularly,
/// the adds wait on fp latency, and core 0 waits on its queues, so the
/// multi-core loop meets every kind of wait.
isa::Program PipelineProgram(std::int64_t iterations) {
  isa::Assembler a;
  for (int c = 0; c < 4; ++c) {
    a.Bind(a.NewNamedLabel("core" + std::to_string(c)));
    a.LiI(isa::Gpr{1}, iterations);
    a.LiI(isa::Gpr{2}, 1);
    a.LiI(isa::Gpr{3}, 2 * c * iterations);        // this core's x
    a.LiI(isa::Gpr{4}, (2 * c + 1) * iterations);  // this core's y
    a.LiI(isa::Gpr{5}, 0);                         // index
    a.LiI(isa::Gpr{6}, 8 * iterations);            // core 0's output
    a.LiF(isa::Fpr{3}, 0.0);
    isa::Label top = a.NewLabel();
    a.Bind(top);
    a.LdFX(isa::Fpr{1}, isa::Gpr{3}, isa::Gpr{5});
    a.LdFX(isa::Fpr{2}, isa::Gpr{4}, isa::Gpr{5});
    a.MulF(isa::Fpr{4}, isa::Fpr{1}, isa::Fpr{2});
    a.AddF(isa::Fpr{3}, isa::Fpr{3}, isa::Fpr{4});
    if (c == 0) {
      for (int producer = 1; producer < 4; ++producer) {
        a.DeqF(producer, isa::Fpr{5});
        a.AddF(isa::Fpr{3}, isa::Fpr{3}, isa::Fpr{5});
      }
      a.StFX(isa::Fpr{3}, isa::Gpr{6}, isa::Gpr{5});
    } else {
      a.EnqF(0, isa::Fpr{3});
    }
    a.AddI(isa::Gpr{5}, isa::Gpr{5}, isa::Gpr{2});
    a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
    a.Bnz(isa::Gpr{1}, top);
    a.Halt();
  }
  return a.Finish();
}

sim::RunResult RunPipeline(const isa::Program& program, std::int64_t iterations,
                           sim::RunTier tier) {
  sim::MachineConfig config;
  config.num_cores = 4;
  config.memory_words = static_cast<std::uint64_t>(9 * iterations);
  config.force_tier = tier;
  sim::Machine machine(config, program);
  for (int c = 0; c < 4; ++c) {
    machine.StartCoreAt(c, "core" + std::to_string(c));
  }
  return machine.Run();
}

/// Wall-clock measurement of one run-loop flavour, repeated until
/// min_seconds of host time accumulate.  Returns simulated instructions
/// per host second plus the deterministic per-run counts.
struct ThroughputSample {
  std::uint64_t instructions_per_run = 0;
  std::uint64_t cycles_per_run = 0;
  double sim_instr_per_s = 0.0;
};

/// Which telemetry sink (if any) the measured machine carries.  A fresh
/// sink is built per run, so accumulating sinks (Chrome trace) pay their
/// real allocation cost instead of amortizing one giant buffer.
enum class SinkMode { kNone, kAggregating, kChromeTrace };

/// Runs `run` until min_seconds of host time accumulate.
template <typename RunFn>
ThroughputSample Measure(double min_seconds, RunFn run) {
  ThroughputSample sample;
  std::uint64_t instructions = 0;
  double elapsed = 0.0;
  const auto start = std::chrono::steady_clock::now();
  do {
    const sim::RunResult result = run();
    sample.instructions_per_run = result.instructions;
    sample.cycles_per_run = result.cycles;
    instructions += result.instructions;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < min_seconds);
  sample.sim_instr_per_s = static_cast<double>(instructions) / elapsed;
  return sample;
}

ThroughputSample MeasureIssueLoop(const isa::Program& program,
                                  sim::RunTier tier, SinkMode mode,
                                  double min_seconds) {
  return Measure(min_seconds, [&] {
    switch (mode) {
      case SinkMode::kAggregating: {
        telemetry::AggregatingSink sink;
        return RunIssueLoop(program, tier, &sink);
      }
      case SinkMode::kChromeTrace: {
        telemetry::ChromeTraceSink sink;
        return RunIssueLoop(program, tier, &sink);
      }
      case SinkMode::kNone:
        break;
    }
    return RunIssueLoop(program, tier);
  });
}

void WriteThroughputArtifact() {
  const isa::Program program = IssueLoopProgram(10000);
  constexpr double kMinSeconds = 0.2;
  const ThroughputSample threaded = MeasureIssueLoop(
      program, sim::RunTier::kAuto, SinkMode::kNone, kMinSeconds);
  const ThroughputSample slow = MeasureIssueLoop(
      program, sim::RunTier::kSlow, SinkMode::kNone, kMinSeconds);
  // Telemetry implies the reference loop, so the tier is redundant for
  // the traced flavours — passed kAuto to measure exactly what a user's
  // "attach a sink" configuration costs.
  const ThroughputSample aggregating = MeasureIssueLoop(
      program, sim::RunTier::kAuto, SinkMode::kAggregating, kMinSeconds);
  const ThroughputSample chrome = MeasureIssueLoop(
      program, sim::RunTier::kAuto, SinkMode::kChromeTrace, kMinSeconds);
  constexpr std::int64_t kPipelineIterations = 2000;
  const isa::Program pipeline = PipelineProgram(kPipelineIterations);
  const ThroughputSample multicore_auto = Measure(kMinSeconds, [&] {
    return RunPipeline(pipeline, kPipelineIterations, sim::RunTier::kAuto);
  });
  const ThroughputSample multicore_slow = Measure(kMinSeconds, [&] {
    return RunPipeline(pipeline, kPipelineIterations, sim::RunTier::kSlow);
  });

  harness::BenchArtifact artifact;
  artifact.name = "sim_throughput";
  const auto add = [&](const char* label, const ThroughputSample& sample,
                       const char* path, const char* sink,
                       const char* machine = "1-core") {
    harness::BenchArtifact::Point point;
    point.label = label;
    point.params["run_loop"] = path;
    point.params["sink"] = sink;
    point.params["machine"] = machine;
    point.counters["instructions_per_run"] = sample.instructions_per_run;
    point.counters["cycles_per_run"] = sample.cycles_per_run;
    point.host["sim_instr_per_s"] = sample.sim_instr_per_s;
    artifact.points.push_back(std::move(point));
  };
  add("issue_loop threaded", threaded, "threaded", "none");
  add("issue_loop slow", slow, "slow", "none");
  add("issue_loop aggregating", aggregating, "slow", "aggregating");
  add("issue_loop chrome_trace", chrome, "slow", "chrome_trace");
  add("pipeline auto", multicore_auto, "auto", "none", "4-core");
  add("pipeline slow", multicore_slow, "slow", "none", "4-core");
  const auto ratio = [](const ThroughputSample& a, const ThroughputSample& b) {
    return b.sim_instr_per_s > 0.0 ? a.sim_instr_per_s / b.sim_instr_per_s
                                   : 0.0;
  };
  artifact.host["threaded_over_slow"] = ratio(threaded, slow);
  // A sink runs on the slow loop, so its cost is measured against it.
  artifact.host["slow_over_aggregating"] = ratio(slow, aggregating);
  artifact.host["slow_over_chrome_trace"] = ratio(slow, chrome);
  artifact.host["multicore_auto_over_slow"] = ratio(multicore_auto, multicore_slow);
  const std::string path = artifact.WriteFile();
  std::fprintf(stderr,
               "wrote %s (threaded %.1fM sim-instr/s, slow %.1fM, "
               "aggregating %.1fM, chrome %.1fM; threaded/slow %.2fx; "
               "4-core pipeline auto %.1fM, slow %.1fM, auto/slow %.2fx)\n",
               path.c_str(), threaded.sim_instr_per_s / 1e6,
               slow.sim_instr_per_s / 1e6, aggregating.sim_instr_per_s / 1e6,
               chrome.sim_instr_per_s / 1e6,
               artifact.host["threaded_over_slow"],
               multicore_auto.sim_instr_per_s / 1e6,
               multicore_slow.sim_instr_per_s / 1e6,
               artifact.host["multicore_auto_over_slow"]);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  try {
    WriteThroughputArtifact();
  } catch (const fgpar::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
