// fgparc — the fine-grained parallelizing compiler, as a command-line tool.
//
// Usage:
//   fgparc <file.fk | kernel> [options]
//
// The input is a kernel-language file or, when no file of that name
// exists, a built-in Table-I kernel id from --list-kernels (e.g.
// lammps-1).  A built-in kernel runs on the workload fig12 measures: its
// Table-I trip count and fixed f64 params (kernels::SequoiaInit).
//
// Options:
//   --cores N          core budget (default 4)
//   --latency N        queue transfer latency in cycles (default 5)
//   --capacity N       queue slots (default 20)
//   --speculate        apply Section III-H control-flow speculation
//   --throughput       use the Section III-B acyclic "throughput" heuristic
//   --tune             multi-version compilation with dynamic feedback
//   --cost-model M     candidate-selection cost model: simulate (train every
//                      candidate on the simulator, same as --tune) or
//                      analytic (the latency-hiding predictor; zero
//                      training simulations)
//   --explain-select   print one explanation record per enumerated
//                      candidate — model attribution, score, features, and
//                      why rejected candidates were rejected.  Implies
//                      --run.
//   --autotune         search merge-shape x cores x queue-capacity x
//                      speculation for this kernel: predict every config
//                      with the analytic model, simulate only the top
//                      frontier (plus the default), report the best, and
//                      write TUNE_<kernel>.json (fgpar-tune-v1)
//   --smt N            hardware threads per physical core (default 1)
//   --trip N           value for every i64 parameter of a .fk file
//                      (default 400; built-in kernels use their own)
//   --seed N           workload RNG seed (default 0x5EED)
//   --tier T           simulator run tier: auto|slow
//                      (default auto; results are bit-identical per tier)
//   --backend B        execution backend: sim|native (default sim).  native
//                      additionally runs the kernel for real on host
//                      threads with SPSC-ring queues, verifies the output
//                      memory, and prints measured wall-clock numbers
//                      beside the simulated ones.  Implies --run.
//   --list-kernels     list the Sequoia kernel corpus (name, fiber count,
//                      Table I source location) and exit; no input file
//                      needed
//   --trace FILE       write a Chrome trace_event capture of the verified
//                      run (compile pass spans + per-core issue, queue
//                      occupancy, and stall intervals) to FILE; open it at
//                      ui.perfetto.dev or chrome://tracing.  Implies --run.
//   --print-ir         dump the rewritten (fiberized) kernel
//   --print-plan       dump partitions with each core's compute-op count,
//                      then the loop and live-out transfers
//   --disasm           dump the generated machine code
//   --print-pipeline   list the passes the parallel pipeline will run
//   --dump-after=P     dump the kernel IR after pass P ("all": every pass)
//   --compile-stats    print per-pass statistics (wall time, IR deltas,
//                      pass counters) and write BENCH_compile_<kernel>.json
//   --run              compile sequential + parallel, verify, report speedup
//                      and the measured parallel machine core by core
//                      (default if no print option is given)
//
// The print options show the program --run measures.  fgparc compiles the
// kernel once, through harness::KernelRunner::Compile, under the same
// RunConfig as the run: profile feedback from the workload, the
// configured queue capacity and the chosen scorer.  --run then measures
// that very CompiledParallel.  --autotune or --print-pipeline alone
// compiles nothing.
//
// For a .fk file, arrays are initialized with deterministic values in
// [0.5, 2); i64 arrays get in-range indices; f64 params get values in
// [0.5, 2); i64 params get --trip.  Exit code 0 on success, 1 on any
// compile/verify error.
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <bit>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/index.hpp"
#include "compiler/backend.hpp"
#include "compiler/compile.hpp"
#include "compiler/partition.hpp"
#include "compiler/pipeline.hpp"
#include "frontend/parser.hpp"
#include "harness/autotune.hpp"
#include "harness/bench_artifact.hpp"
#include "harness/runner.hpp"
#include "model/analytic.hpp"
#include "ir/printer.hpp"
#include "isa/disasm.hpp"
#include "kernels/sequoia.hpp"
#include "sim/machine.hpp"
#include "support/buildinfo.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "support/telemetry/sinks.hpp"

namespace {

using namespace fgpar;

struct CliOptions {
  std::string path;
  int cores = 4;
  int latency = 5;
  int capacity = 20;
  int smt = 1;
  std::int64_t trip = 400;
  std::uint64_t seed = 0x5EED;
  sim::RunTier tier = sim::RunTier::kAuto;
  compiler::BackendKind backend = compiler::BackendKind::kSim;
  bool list_kernels = false;
  bool speculate = false;
  bool throughput = false;
  bool multi_pair = false;  // set via --apply-tune (no direct flag)
  bool tune = false;
  std::string cost_model;  // "", "simulate", or "analytic"
  bool explain_select = false;
  bool autotune = false;
  std::string apply_tune;  // TUNE_<kernel>.json whose best point to run
  std::string trace_path;
  bool print_ir = false;
  bool print_plan = false;
  bool disasm = false;
  bool print_pipeline = false;
  std::string dump_after;
  bool compile_stats = false;
  bool run = false;
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: fgparc <file.fk | kernel> [--cores N] [--latency N] [--capacity N]\n"
               "              [--speculate] [--throughput] [--tune] [--smt N]\n"
               "              [--cost-model simulate|analytic] [--explain-select]\n"
               "              [--autotune] [--apply-tune TUNE.json]\n"
               "              [--trip N] [--seed N] [--tier T] [--backend B]\n"
               "              [--trace FILE]\n"
               "              [--print-ir] [--print-plan] [--disasm] [--run]\n"
               "              [--print-pipeline] [--dump-after=<pass|all>]\n"
               "              [--compile-stats] [--version]\n"
               "       fgparc --list-kernels\n"
               "kernel is a built-in id from --list-kernels; --trip applies to .fk\n"
               "files only.\n");
  std::exit(2);
}

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions options;
  auto next_int = [&](int& i) {
    if (i + 1 >= argc) {
      Usage();
    }
    return std::atoll(argv[++i]);
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--version") == 0) {
      std::printf("fgparc %s config %s\n", BuildVersionString().c_str(),
                  BuildConfigHashHex().c_str());
      std::exit(0);
    } else if (std::strcmp(arg, "--cores") == 0) {
      options.cores = static_cast<int>(next_int(i));
    } else if (std::strcmp(arg, "--latency") == 0) {
      options.latency = static_cast<int>(next_int(i));
    } else if (std::strcmp(arg, "--capacity") == 0) {
      options.capacity = static_cast<int>(next_int(i));
    } else if (std::strcmp(arg, "--smt") == 0) {
      options.smt = static_cast<int>(next_int(i));
    } else if (std::strcmp(arg, "--trip") == 0) {
      options.trip = next_int(i);
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = static_cast<std::uint64_t>(next_int(i));
    } else if (std::strcmp(arg, "--trace") == 0) {
      if (i + 1 >= argc) {
        Usage();
      }
      options.trace_path = argv[++i];
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      options.trace_path = arg + 8;
    } else if (std::strncmp(arg, "--tier=", 7) == 0) {
      options.tier = sim::ParseRunTier(arg + 7);
    } else if (std::strcmp(arg, "--tier") == 0) {
      if (i + 1 >= argc) {
        Usage();
      }
      options.tier = sim::ParseRunTier(argv[++i]);
    } else if (std::strncmp(arg, "--backend=", 10) == 0) {
      options.backend = compiler::ParseBackendKind(arg + 10);
    } else if (std::strcmp(arg, "--backend") == 0) {
      if (i + 1 >= argc) {
        Usage();
      }
      options.backend = compiler::ParseBackendKind(argv[++i]);
    } else if (std::strcmp(arg, "--list-kernels") == 0) {
      options.list_kernels = true;
    } else if (std::strcmp(arg, "--speculate") == 0) {
      options.speculate = true;
    } else if (std::strcmp(arg, "--throughput") == 0) {
      options.throughput = true;
    } else if (std::strcmp(arg, "--tune") == 0) {
      options.tune = true;
    } else if (std::strncmp(arg, "--cost-model=", 13) == 0) {
      options.cost_model = arg + 13;
    } else if (std::strcmp(arg, "--cost-model") == 0) {
      if (i + 1 >= argc) {
        Usage();
      }
      options.cost_model = argv[++i];
    } else if (std::strcmp(arg, "--explain-select") == 0) {
      options.explain_select = true;
    } else if (std::strcmp(arg, "--autotune") == 0) {
      options.autotune = true;
    } else if (std::strncmp(arg, "--apply-tune=", 13) == 0) {
      options.apply_tune = arg + 13;
    } else if (std::strcmp(arg, "--apply-tune") == 0) {
      if (i + 1 >= argc) {
        Usage();
      }
      options.apply_tune = argv[++i];
    } else if (std::strcmp(arg, "--print-ir") == 0) {
      options.print_ir = true;
    } else if (std::strcmp(arg, "--print-plan") == 0) {
      options.print_plan = true;
    } else if (std::strcmp(arg, "--disasm") == 0) {
      options.disasm = true;
    } else if (std::strcmp(arg, "--print-pipeline") == 0) {
      options.print_pipeline = true;
    } else if (std::strncmp(arg, "--dump-after=", 13) == 0) {
      options.dump_after = arg + 13;
    } else if (std::strcmp(arg, "--dump-after") == 0) {
      if (i + 1 >= argc) {
        Usage();
      }
      options.dump_after = argv[++i];
    } else if (std::strcmp(arg, "--compile-stats") == 0) {
      options.compile_stats = true;
    } else if (std::strcmp(arg, "--run") == 0) {
      options.run = true;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      Usage();
    } else if (options.path.empty()) {
      options.path = arg;
    } else {
      Usage();
    }
  }
  if (options.path.empty() && !options.list_kernels) {
    Usage();
  }
  if (!options.cost_model.empty() && options.cost_model != "simulate" &&
      options.cost_model != "analytic") {
    std::fprintf(stderr, "unknown cost model: %s (simulate|analytic)\n",
                 options.cost_model.c_str());
    Usage();
  }
  if (options.cost_model == "simulate") {
    options.tune = true;  // the simulate model is dynamic-feedback tuning
    options.cost_model.clear();
  }
  if (!options.print_ir && !options.print_plan && !options.disasm &&
      !options.print_pipeline && options.dump_after.empty() &&
      !options.compile_stats && !options.autotune) {
    options.run = true;
  }
  if (options.explain_select) {
    options.run = true;  // the explanation records come from the verified run
  }
  if (!options.trace_path.empty()) {
    options.run = true;  // the trace captures the verified run
  }
  if (options.backend == compiler::BackendKind::kNative) {
    options.run = true;  // native numbers come from the verified run
  }
  return options;
}

harness::WorkloadInit MakeInit(const CliOptions& options) {
  const std::int64_t trip = options.trip;
  return [trip](std::uint64_t seed, const ir::Kernel& kernel,
                const ir::DataLayout& layout, ir::ParamEnv& params,
                std::vector<std::uint64_t>& memory) {
    Rng rng(seed);
    for (const ir::Symbol& sym : kernel.symbols()) {
      switch (sym.kind) {
        case ir::SymbolKind::kParam:
          if (sym.type == ir::ScalarType::kI64) {
            params.SetI64(sym.id, trip);
          } else {
            params.SetF64(sym.id, rng.NextDouble(0.5, 2.0));
          }
          break;
        case ir::SymbolKind::kArray: {
          const std::uint64_t base = layout.AddressOf(sym.id);
          for (std::int64_t i = 0; i < sym.array_size; ++i) {
            memory[base + static_cast<std::uint64_t>(i)] =
                sym.type == ir::ScalarType::kF64
                    ? std::bit_cast<std::uint64_t>(rng.NextDouble(0.5, 2.0))
                    : static_cast<std::uint64_t>(
                          rng.NextInt(0, sym.array_size - 1));
          }
          break;
        }
        case ir::SymbolKind::kScalar:
          break;
      }
    }
  };
}

/// --list-kernels: enumerate the Sequoia corpus so harness scripts stop
/// hard-coding the 18 names.  The fiber count comes from the default
/// rewrite pipeline (the Table III "initial fibers" statistic).
int ListKernels() {
  std::printf("%-12s %7s  %s\n", "kernel", "fibers", "source");
  for (const kernels::SequoiaKernel& kernel : kernels::SequoiaKernels()) {
    const ir::Kernel parsed = kernels::ParseSequoia(kernel);
    const compiler::PartitionResult partition =
        compiler::PartitionKernel(parsed, compiler::CompileOptions{},
                                  /*profile=*/nullptr);
    std::printf("%-12s %7d  %s\n", kernel.id.c_str(),
                partition.initial_fibers, kernel.location.c_str());
  }
  return 0;
}

/// --print-plan: each core's statements and compute-op count, then the
/// values the plan moves between cores inside the loop and after it.
void PrintPlan(const compiler::CompiledParallel& compiled) {
  const ir::Kernel& kernel = compiled.partition.kernel;
  const analysis::KernelIndex index(kernel);
  std::printf("partitions (%d cores used):\n", compiled.cores_used);
  for (std::size_t c = 0; c < compiled.partition.partitions.size(); ++c) {
    std::printf("  core %zu (%d compute ops):\n", c,
                compiled.partition.compute_ops_per_core[c]);
    for (ir::StmtId id : compiled.partition.partitions[c]) {
      std::string text = ir::PrintStmts(kernel, {*index.ByStmtId(id).stmt}, 0);
      if (!text.empty() && text.back() == '\n') {
        text.pop_back();
      }
      std::printf("    %s\n", text.c_str());
    }
  }
  const compiler::CommPlan& comm = compiled.plan.comm;
  std::printf("loop transfers: %d\n", comm.com_ops());
  for (const compiler::Transfer& t : comm.transfers) {
    std::printf("  %s: core %d -> core %d\n", kernel.temp(t.temp).name.c_str(),
                t.src_core, t.dst_core);
  }
  std::printf("live-out transfers: %zu\n", comm.live_outs.size());
  for (const compiler::LiveOut& lo : comm.live_outs) {
    std::printf("  %s: core %d -> core 0\n", kernel.temp(lo.temp).name.c_str(),
                lo.src_core);
  }
}

/// --run: the measured parallel machine, core by core.
void PrintMachine(const harness::KernelRun& run, int capacity) {
  const auto commas = [](std::uint64_t n) {
    return FormatWithCommas(static_cast<long long>(n));
  };
  std::printf("machine:      %s cycles (core 0 halted at %s)\n",
              commas(run.par_machine_cycles).c_str(),
              commas(run.par_cycles).c_str());
  std::printf("peak queue:   %d of %d slots\n", run.max_queue_occupancy,
              capacity);
  std::printf("per core:     %12s %11s %12s %11s\n", "instructions",
              "raw stalls", "queue-empty", "queue-full");
  for (std::size_t c = 0; c < run.par_core_stats.size(); ++c) {
    const sim::CoreStats& st = run.par_core_stats[c];
    std::printf("  core %-7zu%12s %11s %12s %11s\n", c,
                commas(st.instructions).c_str(), commas(st.stall_raw).c_str(),
                commas(st.stall_queue_empty).c_str(),
                commas(st.stall_queue_full).c_str());
  }
}

/// --explain-select: one record per enumerated candidate.
void PrintCandidateReports(
    const std::vector<compiler::CandidateReport>& reports) {
  std::printf("candidate selection (%zu enumerated):\n", reports.size());
  for (const compiler::CandidateReport& report : reports) {
    std::printf("  #%zu: %zu partitions, model %s", report.index + 1,
                report.partitions, report.model.c_str());
    if (report.built) {
      std::printf(", cost %.2f%s\n", report.cost,
                  report.selected ? "  << selected" : "");
    } else {
      std::printf("  REJECTED\n");
    }
    if (!report.detail.empty()) {
      std::printf("      %s\n", report.detail.c_str());
    }
    for (const auto& [feature, value] : report.features) {
      std::printf("      %-24s %.2f\n", feature.c_str(), value);
    }
  }
}

/// --compile-stats' sink.  It keeps every compile span and passes each on
/// to the --trace sink, if any: the one compile feeds both.  A compile
/// emits spans only.
class CompileStatsSink final : public telemetry::AggregatingSink {
 public:
  explicit CompileStatsSink(telemetry::TelemetrySink* trace) : trace_(trace) {}
  void OnSpan(const telemetry::SpanEvent& event) override {
    AggregatingSink::OnSpan(event);
    if (trace_ != nullptr) {
      trace_->OnSpan(event);
    }
  }

 private:
  telemetry::TelemetrySink* trace_;
};

int Main(int argc, char** argv) {
  CliOptions options = ParseArgs(argc, argv);
  if (options.list_kernels) {
    return ListKernels();
  }

  // A tune artifact's best point overrides the config knobs — autotuned
  // configs are addressable anywhere the CLI knobs are.
  if (!options.apply_tune.empty()) {
    std::ifstream tune_in(options.apply_tune);
    if (!tune_in) {
      std::fprintf(stderr, "fgparc: cannot open %s\n",
                   options.apply_tune.c_str());
      return 1;
    }
    std::stringstream tune_buffer;
    tune_buffer << tune_in.rdbuf();
    const harness::TuneResult tuned =
        harness::ParseTuneArtifact(tune_buffer.str());
    const harness::TunePoint& best = harness::BestPoint(tuned);
    options.cores = best.cores;
    options.capacity = best.queue_capacity;
    options.speculate = best.speculation;
    options.throughput = best.merge == 2;
    options.multi_pair = best.merge == 1;
    std::printf("applied tune point (%s): %s\n", tuned.kernel.c_str(),
                harness::TunePointLabel(best).c_str());
  }

  // An existing file wins; otherwise the argument may name a built-in
  // kernel, which runs on its own Table-I workload as fig12 does.
  std::string source;
  harness::WorkloadInit init;
  const std::vector<kernels::SequoiaKernel>& builtins =
      kernels::SequoiaKernels();
  const auto builtin = std::find_if(
      builtins.begin(), builtins.end(),
      [&](const kernels::SequoiaKernel& k) { return k.id == options.path; });
  if (std::ifstream in(options.path); in) {
    std::stringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
    init = MakeInit(options);
  } else if (builtin != builtins.end()) {
    source = builtin->source;
    init = kernels::SequoiaInit(*builtin);
  } else {
    std::fprintf(stderr, "fgparc: cannot open %s\n", options.path.c_str());
    return 1;
  }

  const ir::Kernel kernel = frontend::ParseKernel(source);

  harness::RunConfig config;
  config.compile.num_cores = options.cores;
  config.compile.speculation = options.speculate;
  config.compile.throughput_heuristic = options.throughput;
  config.compile.multi_pair_merge = options.multi_pair;
  config.queue.transfer_latency = options.latency;
  config.queue.capacity = options.capacity;
  config.threads_per_core = options.smt;
  config.tune_by_simulation = options.tune;
  config.seed = options.seed;
  config.force_tier = options.tier;
  config.backend = options.backend;
  const model::AnalyticModel analytic;
  if (options.cost_model == "analytic") {
    config.cost_model = &analytic;
  }
  telemetry::ChromeTraceSink trace_sink;
  if (!options.trace_path.empty()) {
    config.telemetry = &trace_sink;
  }

  if (options.print_pipeline) {
    std::printf("%s",
                compiler::BuildParallelPipeline(config.compile).Describe().c_str());
  }
  if (!options.dump_after.empty() && options.dump_after != "all" &&
      !compiler::BuildParallelPipeline(config.compile)
           .HasPass(options.dump_after)) {
    std::fprintf(stderr, "fgparc: --dump-after=%s: no such pass (see --print-pipeline)\n",
                 options.dump_after.c_str());
    return 2;
  }

  // The one parallel compile: every print option shows the program that
  // --run then measures.
  const harness::KernelRunner runner(kernel, init);
  std::optional<compiler::CompiledParallel> compiled;
  if (options.print_ir || options.print_plan || options.disasm ||
      !options.dump_after.empty() || options.compile_stats || options.run) {
    CompileStatsSink compile_sink(config.telemetry);
    compiler::PipelineInstrumentation instrumentation;
    instrumentation.dump_after = options.dump_after;
    if (!options.dump_after.empty()) {
      instrumentation.dump_sink = [](const std::string& pass,
                                     const std::string& text) {
        std::printf("=== IR after '%s' ===\n%s\n", pass.c_str(), text.c_str());
      };
    }
    instrumentation.telemetry =
        options.compile_stats ? &compile_sink : config.telemetry;
    compiled.emplace(runner.Compile(config, &instrumentation));

    if (options.compile_stats) {
      const std::vector<telemetry::SpanRecord> pipelines =
          compile_sink.SpansInCategory("pipeline");
      const std::string pipeline =
          pipelines.empty() ? "parallel" : pipelines.back().name;
      const std::vector<telemetry::SpanRecord> pass_spans =
          compile_sink.SpansInCategory("pass");
      std::printf("%s",
                  compiler::FormatCompileSpans(pipeline, pass_spans).c_str());
      const std::string path =
          harness::MakeCompileStatsArtifact(kernel.name(), pipeline, pass_spans)
              .WriteFile();
      std::printf("compile stats written: %s\n", path.c_str());
    }
  }

  if (options.print_ir) {
    std::printf("%s\n", ir::PrintKernel(compiled->partition.kernel).c_str());
  }
  if (options.print_plan) {
    PrintPlan(*compiled);
  }
  if (options.disasm) {
    std::printf("%s\n", isa::DisassembleProgram(compiled->program).c_str());
  }

  if (options.autotune) {
    harness::TuneOptions tune_options;
    tune_options.default_point.cores = options.cores;
    tune_options.default_point.queue_capacity = options.capacity;
    tune_options.default_point.speculation = options.speculate;
    tune_options.default_point.merge = options.throughput ? 2 : 0;
    tune_options.seed = options.seed;
    const harness::TuneResult tuned = harness::AutotuneKernel(
        kernel, init, harness::TuneSpace{}, tune_options);
    std::printf("kernel:       %s\n", kernel.name().c_str());
    std::printf("enumerated:   %zu configs\n", tuned.enumerated);
    std::printf("simulated:    %zu (frontier %zu, %.0f%% of the space)\n",
                tuned.simulated, tuned.frontier_size,
                100.0 * static_cast<double>(tuned.frontier_size) /
                    static_cast<double>(tuned.enumerated));
    for (const harness::TuneCandidate& candidate : tuned.candidates) {
      if (!candidate.simulated && candidate.note.empty()) {
        continue;  // predicted-only points stay in the artifact
      }
      std::printf("  %-28s predicted %.2f",
                  harness::TunePointLabel(candidate.point).c_str(),
                  candidate.predicted_speedup);
      if (candidate.simulated) {
        std::printf("  simulated %.2f", candidate.simulated_speedup);
      }
      if (!candidate.note.empty()) {
        std::printf("  [%s]", candidate.note.c_str());
      }
      std::printf("\n");
    }
    std::printf("default:      %s (speedup %.2f)\n",
                harness::TunePointLabel(
                    tuned.candidates[tuned.default_index].point)
                    .c_str(),
                tuned.default_speedup);
    std::printf("best:         %s (speedup %.2f)\n",
                harness::TunePointLabel(harness::BestPoint(tuned)).c_str(),
                tuned.best_speedup);
    const std::string artifact_path = "TUNE_" + kernel.name() + ".json";
    std::ofstream out(artifact_path, std::ios::binary);
    out << harness::EncodeTuneArtifact(tuned);
    out.close();
    std::printf("tune artifact written: %s\n", artifact_path.c_str());
    return 0;
  }

  if (options.run) {
    const harness::KernelRun run = runner.Run(config, *compiled);
    std::printf("kernel:       %s\n", kernel.name().c_str());
    std::printf("cores used:   %d (of %d budgeted", run.cores_used, options.cores);
    if (options.smt > 1) {
      std::printf(", %d threads/core", options.smt);
    }
    std::printf(")\n");
    std::printf("sequential:   %s cycles\n",
                FormatWithCommas(static_cast<long long>(run.seq_cycles)).c_str());
    std::printf("parallel:     %s cycles\n",
                FormatWithCommas(static_cast<long long>(run.par_cycles)).c_str());
    std::printf("speedup:      %.2f\n", run.speedup);
    std::printf("fibers:       %d (data deps %d, load balance %.2f)\n",
                run.initial_fibers, run.data_deps, run.load_balance);
    std::printf("comm:         %d loop transfers over %d queues\n", run.com_ops,
                run.queues_used);
    PrintMachine(run, options.capacity);
    std::printf("verified:     memory bit-identical to the reference "
                "interpreter\n");
    if (options.explain_select) {
      PrintCandidateReports(compiled->candidate_reports);
    }
    if (run.native_run) {
      std::printf("native seq:   %.3f ms (1 thread)\n",
                  run.native_seq_seconds * 1e3);
      std::printf("native par:   %.3f ms (%d threads, %s ring transfers "
                  "over %d rings)\n",
                  run.native_par_seconds * 1e3, run.native_cores,
                  FormatWithCommas(static_cast<long long>(
                                       run.native_queue_transfers))
                      .c_str(),
                  run.native_rings_used);
      std::printf("native speedup: %.2f (measured wall-clock; simulated "
                  "%.2f)\n",
                  run.native_speedup, run.speedup);
      std::printf("native verified: memory bit-identical to the reference "
                  "interpreter\n");
    }
    if (!options.trace_path.empty()) {
      trace_sink.WriteFile(options.trace_path);
      std::printf("trace:        %s (open at ui.perfetto.dev)\n",
                  options.trace_path.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const fgpar::Error& e) {
    std::fprintf(stderr, "fgparc: %s\n", e.what());
    return 1;
  }
}
