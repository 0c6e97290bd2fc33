// Figure 12: "Speedup of Fine-Grained Parallel Code Over Sequential Code".
//
// For each of the 18 Table-I kernels, runs the verifying pipeline with 2
// and 4 cores (queue length 20, transfer latency 5 — the Section V
// defaults) and prints the per-kernel speedups plus the averages the paper
// reports (2-core avg 1.32, range 1.03-1.76; 4-core avg 2.05, range
// 0.90-2.98).
//
// The (kernel x cores) grid runs under the resilient sweep supervisor
// (harness/supervisor.hpp): points are fanned across host threads
// (FGPAR_SWEEP_THREADS overrides the worker count), and the table plus the
// deterministic portion of BENCH_fig12.json are byte-identical for any
// thread count, with or without an interruption-and-resume in between.
//
// Flags:
//   --smoke              3-kernel subset for CI
//   --checkpoint <path>  journal completed points ("fgpar-ckpt-v1")
//   --resume             skip points already in the checkpoint journal
//   --cycle-budget <n>   per-point simulated-cycle budget (RunConfig::
//                        max_cycles); a point that overruns it is
//                        quarantined
//   --failure-budget <n> quarantined failures tolerated before exit 1
//   --fault-point <i>    fails grid point i through a one-cycle budget
//                        (the resume drill; quarantines that point)
//   --repro-dir <dir>    emit a repro bundle per quarantined point
//   --trace <path>       write a Chrome trace_event capture of the whole
//                        sweep (per-point "point" host spans plus
//                        each measured run's sim events, one stream lane
//                        per grid point) to <path>; open it at
//                        ui.perfetto.dev or chrome://tracing
//   --tuned              after the simulated sweep, autotune every kernel
//                        (harness/autotune: predict the whole merge x
//                        cores x capacity x speculation space, simulate
//                        only the top-K frontier), print the default-vs-
//                        tuned speedup per kernel with the chosen config,
//                        and emit BENCH_fig12_tuned.json.  Exits 1 if any
//                        kernel's tuned config simulates slower than the
//                        4-core default — the autotuner's never-worse
//                        guarantee, checked end to end.
//   --backend native     after the simulated sweep, additionally execute
//                        every kernel for real on host threads (4 cores,
//                        native backend), print a measured-vs-simulated
//                        column, and emit BENCH_native.json.  The default
//                        table and BENCH_fig12.json are byte-identical
//                        with or without this flag; wall-clock numbers
//                        live only in the new artifact's host fields.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "compiler/backend.hpp"
#include "harness/autotune.hpp"
#include "harness/repro.hpp"
#include "harness/supervisor.hpp"
#include "kernels/experiments.hpp"
#include "kernels/sequoia.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "support/telemetry/sinks.hpp"

namespace {

using fgpar::kernels::SequoiaKernel;
using fgpar::kernels::SequoiaKernels;

// The sweep grid.  Point order is the checkpoint contract — the labels
// fingerprint the journal, so reordering orphans every checkpoint:
//
//   index = cores_slot * kernel_count + kernel_slot
//
// i.e. all kernels at 2 cores first, then all kernels at 4 cores, with
// labels "<kernel-id> cores=<n>".
struct Grid {
  std::string name = "fig12";
  std::vector<int> core_counts = {2, 4};
  std::size_t kernel_count = 0;     // 3 for --smoke, else all 18
  std::vector<std::string> labels;  // size() entries, index order

  std::size_t size() const { return labels.size(); }
  const SequoiaKernel& KernelAt(std::size_t index) const {
    return SequoiaKernels()[index % kernel_count];
  }
  int CoresAt(std::size_t index) const {
    return core_counts[index / kernel_count];
  }
};

Grid MakeGrid(bool smoke) {
  Grid grid;
  const std::vector<SequoiaKernel>& all = SequoiaKernels();
  grid.kernel_count = smoke ? std::min<std::size_t>(3, all.size()) : all.size();
  for (const int cores : grid.core_counts) {
    for (std::size_t k = 0; k < grid.kernel_count; ++k) {
      grid.labels.push_back(all[k].id + " cores=" + std::to_string(cores));
    }
  }
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fgpar;

  const bool smoke = benchutil::HasFlag(argc, argv, "--smoke");
  const auto start = std::chrono::steady_clock::now();
  const Grid grid = MakeGrid(smoke);
  const std::size_t grid_size = grid.size();
  const int threads = harness::ResolveSweepThreads(0);

  const long long fault_point =
      benchutil::FlagInt(argc, argv, "--fault-point", -1);
  const std::string repro_dir =
      benchutil::FlagValue(argc, argv, "--repro-dir");
  const std::size_t failure_budget = static_cast<std::size_t>(
      benchutil::FlagInt(argc, argv, "--failure-budget", 0));
  const std::uint64_t cycle_budget = static_cast<std::uint64_t>(
      benchutil::FlagInt(argc, argv, "--cycle-budget", 0));

  harness::SupervisorConfig supervision;
  supervision.name = grid.name;
  supervision.labels = grid.labels;
  supervision.checkpoint_path =
      benchutil::FlagValue(argc, argv, "--checkpoint");
  supervision.resume = benchutil::HasFlag(argc, argv, "--resume");

  // --trace routes the whole sweep through one shared Chrome-trace sink
  // (the supervisor re-stamps each point onto its own stream lane).
  // Untraced sweeps stay on the simulator fast path.
  const std::string trace_path = benchutil::FlagValue(argc, argv, "--trace");
  telemetry::ChromeTraceSink trace_sink;
  if (!trace_path.empty()) {
    supervision.telemetry = &trace_sink;
  }

  // Host-only observations, one slot per point (each slot is written by
  // exactly one worker at a time).  Failure snapshots feed repro bundles.
  std::vector<double> wall(grid_size, 0.0);
  std::vector<std::vector<std::uint8_t>> snapshots(grid_size);

  const auto config_for = [&](std::size_t index) {
    kernels::ExperimentConfig experiment;
    experiment.cores = grid.CoresAt(index);
    harness::RunConfig config = kernels::ToRunConfig(experiment);
    config.max_cycles = cycle_budget;
    if (fault_point >= 0 && index == static_cast<std::size_t>(fault_point)) {
      // A real failure: the sequential run cannot finish in one cycle, so
      // the point throws a CycleBudgetError and gets quarantined.
      config.max_cycles = 1;
    }
    return config;
  };

  const auto body = [&](const harness::PointContext& ctx) {
    harness::RunConfig config = config_for(ctx.index);
    config.telemetry = ctx.telemetry;
    config.on_failure = [&](const sim::Machine& machine, const Error&) {
      snapshots[ctx.index] = machine.Snapshot();
    };
    const auto point_start = std::chrono::steady_clock::now();
    const harness::KernelRun run =
        kernels::RunKernel(grid.KernelAt(ctx.index), config);
    wall[ctx.index] = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - point_start)
                          .count();
    return harness::EncodeKernelRun(run);
  };
  const auto repro = [&](const harness::PointContext& ctx,
                         const harness::PointFailure& failure) -> std::string {
    if (repro_dir.empty()) {
      return "";
    }
    const kernels::SequoiaKernel& kernel = grid.KernelAt(ctx.index);
    harness::ReproBundle bundle;
    bundle.experiment = "fig12";
    bundle.label = failure.label;
    bundle.point_index = failure.index;
    bundle.kernel_id = kernel.id;
    bundle.kernel_source = kernel.source;
    bundle.trip = kernel.trip;
    bundle.f64_params = kernel.f64_params;
    bundle.config = config_for(ctx.index);
    bundle.failure_message = failure.message;
    bundle.snapshot = snapshots[ctx.index];
    const std::string name = "repro_fig12_point" + std::to_string(ctx.index);
    harness::WriteReproBundle(repro_dir, name, bundle);
    return name;
  };

  harness::SweepSupervisor supervisor(supervision);
  const harness::SweepOutcome outcome = supervisor.Run(body, repro);
  if (outcome.resumed_points > 0) {
    std::fprintf(stderr, "resumed %zu completed points from %s\n",
                 outcome.resumed_points, supervision.checkpoint_path.c_str());
  }
  for (const harness::PointFailure& failure : outcome.failures) {
    std::fprintf(stderr, "quarantined point %zu (%s): %s\n", failure.index,
                 failure.label.c_str(), failure.message.c_str());
  }

  // Decode the journal payloads back into KernelRuns; quarantined points
  // have no run and render as placeholder rows.
  const std::size_t kernel_count = grid.kernel_count;
  std::vector<harness::KernelRun> runs(grid_size);
  for (std::size_t i = 0; i < grid_size; ++i) {
    if (outcome.completed[i]) {
      runs[i] = harness::DecodeKernelRun(outcome.payloads[i]);
    }
  }

  TextTable table({"Kernel", "2-core speedup", "4-core speedup"});
  std::vector<double> s2, s4;
  for (std::size_t i = 0; i < kernel_count; ++i) {
    const bool ok2 = outcome.completed[i] != 0;
    const bool ok4 = outcome.completed[kernel_count + i] != 0;
    table.AddRow({grid.KernelAt(i).id,
                  ok2 ? FormatFixed(runs[i].speedup, 2) : "quarantined",
                  ok4 ? FormatFixed(runs[kernel_count + i].speedup, 2)
                      : "quarantined"});
    if (ok2) {
      s2.push_back(runs[i].speedup);
    }
    if (ok4) {
      s4.push_back(runs[kernel_count + i].speedup);
    }
  }
  // Aggregates skip quarantined points; a column with no completed point
  // at all (every point quarantined) renders as "n/a" rather than
  // asserting on the empty set.
  const auto agg = [](const std::vector<double>& v,
                      double (*fn)(std::span<const double>)) {
    return v.empty() ? std::string("n/a") : FormatFixed(fn(v), 2);
  };
  table.AddSeparator();
  table.AddRow({"average", agg(s2, Mean), agg(s4, Mean)});
  table.AddRow({"min", agg(s2, Min), agg(s4, Min)});
  table.AddRow({"max", agg(s2, Max), agg(s4, Max)});

  std::printf("%s\n",
              table
                  .Render("Figure 12: speedup of fine-grained parallel code over "
                          "sequential code\n(paper: 2-core avg 1.32 in "
                          "[1.03, 1.76]; 4-core avg 2.05 in [0.90, 2.98])")
                  .c_str());
  std::printf("All runs verified bit-exact against the reference interpreter.\n");

  harness::BenchArtifact artifact;
  artifact.name = "fig12";
  for (std::size_t i = 0; i < grid_size; ++i) {
    if (!outcome.completed[i]) {
      continue;  // quarantined: recorded in the failures section instead
    }
    artifact.points.push_back(benchutil::MakePoint(
        benchutil::TimedRun{runs[i], wall[i]},
        {{"cores", std::to_string(grid.CoresAt(i))}}));
  }
  harness::AddFailurePoints(outcome, artifact);
  artifact.host["sweep_threads"] = threads;
  artifact.host["wall_seconds"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  benchutil::EmitArtifact(artifact);
  if (!trace_path.empty()) {
    trace_sink.WriteFile(trace_path);
    std::printf("trace written: %s (open at ui.perfetto.dev)\n",
                trace_path.c_str());
  }

  // --backend native: a second, serial pass that executes each kernel for
  // real on host threads and reports measured wall-clock speedup beside
  // the simulated number.  Serial on purpose — concurrent points would
  // contend for the very cores the pinned workers run on and corrupt the
  // timing.  Everything above this point is untouched by the flag.
  const compiler::BackendKind backend = compiler::ParseBackendKind(
      benchutil::FlagValue(argc, argv, "--backend", "sim"));
  if (backend == compiler::BackendKind::kNative) {
    harness::BenchArtifact native_artifact;
    native_artifact.name = "native";
    TextTable native_table(
        {"Kernel", "simulated speedup", "measured speedup", "verified"});
    bool all_verified = true;
    for (std::size_t i = 0; i < kernel_count; ++i) {
      kernels::ExperimentConfig experiment;
      experiment.cores = 4;
      experiment.backend = compiler::BackendKind::kNative;
      const benchutil::TimedRun timed =
          benchutil::TimedKernelRun(grid.KernelAt(i), experiment);
      const harness::KernelRun& run = timed.run;
      all_verified = all_verified && run.native_run && run.native_verified;
      native_table.AddRow(
          {grid.KernelAt(i).id, FormatFixed(run.speedup, 2),
           run.native_run ? FormatFixed(run.native_speedup, 2) : "n/a",
           run.native_run && run.native_verified ? "yes" : "NO"});
      harness::BenchArtifact::Point point = benchutil::MakePoint(
          timed, {{"backend", "native"}, {"cores", "4"}});
      point.host["native_seq_seconds"] = run.native_seq_seconds;
      point.host["native_par_seconds"] = run.native_par_seconds;
      point.host["native_wall_speedup"] = run.native_speedup;
      native_artifact.points.push_back(std::move(point));
    }
    std::printf("%s\n",
                native_table
                    .Render("Native backend: measured wall-clock speedup on "
                            "host threads vs simulated speedup\n(4 cores; "
                            "wall-clock numbers are host-dependent and "
                            "excluded from deterministic artifacts)")
                    .c_str());
    native_artifact.host["wall_seconds"] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    benchutil::EmitArtifact(native_artifact);
    if (!all_verified) {
      std::fprintf(stderr, "native backend verification failed\n");
      return 1;
    }
    std::printf(
        "All native runs verified bit-exact against the reference "
        "interpreter.\n");
  }
  // --tuned: a third pass that runs the per-kernel autotuner over every
  // grid kernel and checks its never-worse contract against the 4-core
  // default by simulation.  Each AutotuneKernel call predicts the whole
  // space, simulates only the frontier (default always included), and
  // both speedups below are simulated numbers — so a row where "tuned"
  // beats "default" is a real, verifying simulation win, not a predictor
  // claim.  The default table and BENCH_fig12.json are untouched.
  if (benchutil::HasFlag(argc, argv, "--tuned")) {
    const harness::TuneSpace space;
    harness::BenchArtifact tuned_artifact;
    tuned_artifact.name = "fig12_tuned";
    TextTable tuned_table(
        {"Kernel", "default speedup", "tuned speedup", "chosen config"});
    bool never_worse = true;
    std::size_t frontier_total = 0;
    std::size_t enumerated_total = 0;
    for (std::size_t i = 0; i < kernel_count; ++i) {
      const kernels::SequoiaKernel& sk = grid.KernelAt(i);
      const ir::Kernel kernel = kernels::ParseSequoia(sk);
      harness::TuneOptions tune_options;
      tune_options.sweep_threads = threads;
      const harness::TuneResult result = harness::AutotuneKernel(
          kernel, kernels::SequoiaInit(sk), space, tune_options);
      never_worse = never_worse &&
                    result.best_speedup >= result.default_speedup;
      frontier_total += result.frontier_size;
      enumerated_total += result.enumerated;
      const harness::TunePoint& best = harness::BestPoint(result);
      tuned_table.AddRow({sk.id, FormatFixed(result.default_speedup, 2),
                          FormatFixed(result.best_speedup, 2),
                          harness::TunePointLabel(best)});
      harness::BenchArtifact::Point point;
      point.label = sk.id;
      point.params["config"] = harness::TunePointLabel(best);
      point.params["cores"] = std::to_string(best.cores);
      point.params["capacity"] = std::to_string(best.queue_capacity);
      point.params["speculation"] = best.speculation ? "1" : "0";
      point.params["merge"] = std::string(harness::MergeShapeName(best.merge));
      point.metrics["default_speedup"] = result.default_speedup;
      point.metrics["tuned_speedup"] = result.best_speedup;
      point.counters["enumerated"] = result.enumerated;
      point.counters["frontier"] = result.frontier_size;
      point.counters["simulated"] = result.simulated;
      tuned_artifact.points.push_back(std::move(point));
    }
    std::printf(
        "%s\n",
        tuned_table
            .Render("Autotuned configs vs the 4-core default (simulated; "
                    "chosen = best simulated frontier point)")
            .c_str());
    std::printf("frontier: simulated %zu of %zu enumerated points (%.0f%%)\n",
                frontier_total, enumerated_total,
                enumerated_total == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(frontier_total) /
                          static_cast<double>(enumerated_total));
    tuned_artifact.host["wall_seconds"] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    benchutil::EmitArtifact(tuned_artifact);
    if (!never_worse) {
      std::fprintf(stderr,
                   "autotuner chose a config slower than the default\n");
      return 1;
    }
    std::printf(
        "All tuned configs are at least as fast as the default "
        "(never-worse contract holds).\n");
  }
  return outcome.failures.size() <= failure_budget ? 0 : 1;
}
