#include "harness/runner.hpp"

#include <algorithm>
#include <sstream>

#include "ir/validate.hpp"
#include "native/codegen.hpp"
#include "native/executor.hpp"
#include "support/error.hpp"

namespace fgpar::harness {

namespace {

/// Byte-compares a native run's output memory against the golden image
/// (the native analogue of KernelRunner::CompareMemory, which reads a sim
/// machine instead of a host vector).
void CompareNativeMemory(const std::vector<std::uint64_t>& actual,
                         const std::vector<std::uint64_t>& golden,
                         const std::string& kernel, const std::string& what) {
  for (std::uint64_t addr = 0; addr < golden.size(); ++addr) {
    if (actual[addr] != golden[addr]) {
      std::ostringstream os;
      os << "memory mismatch in " << what << " for kernel '" << kernel
         << "' at address " << addr << ": golden=0x" << std::hex
         << golden[addr] << " actual=0x" << actual[addr];
      throw VerifyError(os.str());
    }
  }
}

/// Run-to-completion under RunConfig::max_cycles: a machine still going at
/// the budget is paused at the next loop boundary and reported as a
/// CycleBudgetError instead of spinning until Machine's own hard limit.
sim::RunResult RunBounded(sim::Machine& machine, std::uint64_t max_cycles,
                          const std::string& kernel, const char* what) {
  if (max_cycles == 0) {
    return machine.Run();
  }
  const sim::PauseResult outcome = machine.RunUntil(max_cycles);
  if (!outcome.finished) {
    throw CycleBudgetError(
        "kernel '" + kernel + "': " + what +
        " exceeded the cycle budget: paused at cycle " +
        std::to_string(machine.now()) + " (budget " +
        std::to_string(max_cycles) + ")");
  }
  return outcome.result;
}

}  // namespace

KernelRunner::KernelRunner(const ir::Kernel& kernel, WorkloadInit init)
    : kernel_(kernel), layout_(kernel_, /*base=*/64), init_(std::move(init)) {
  ir::CheckValid(kernel_);
}

KernelRunner::Prepared KernelRunner::Prepare(const RunConfig& config) const {
  Prepared prepared{ir::ParamEnv(kernel_),
                    std::vector<std::uint64_t>(layout_.end(), 0)};
  init_(config.seed, kernel_, layout_, prepared.params, prepared.image);
  prepared.params.CheckComplete(kernel_);
  // Publish parameter values into the layout's parameter block so compiled
  // code can load them at startup.
  for (const ir::Symbol& sym : kernel_.symbols()) {
    if (sym.kind == ir::SymbolKind::kParam) {
      prepared.image[layout_.ParamAddressOf(sym.id)] = prepared.params.GetRaw(sym.id);
    }
  }
  return prepared;
}

std::vector<std::uint64_t> KernelRunner::GoldenMemory(const Prepared& prepared) const {
  std::vector<std::uint64_t> memory = prepared.image;
  ir::Interpreter interp(kernel_, layout_, prepared.params, memory);
  interp.Run();
  return memory;
}

sim::MachineConfig KernelRunner::MachineConfigFor(const RunConfig& config,
                                                  int cores) const {
  sim::MachineConfig machine;
  machine.num_cores = cores;
  machine.threads_per_core = std::min(config.threads_per_core, cores);
  machine.timing = config.timing;
  machine.cache = config.cache;
  machine.queue = config.queue;
  machine.force_tier = config.force_tier;
  // Round the data region up to a power-of-two-ish budget with headroom.
  std::uint64_t words = 1024;
  while (words < layout_.end() + 64) {
    words *= 2;
  }
  machine.memory_words = words;
  return machine;
}

void KernelRunner::LoadImage(sim::Machine& machine,
                             const std::vector<std::uint64_t>& image) const {
  for (std::uint64_t addr = 0; addr < image.size(); ++addr) {
    machine.memory().WriteRaw(addr, image[addr]);
  }
}

void KernelRunner::CompareMemory(const sim::Machine& machine,
                                 const std::vector<std::uint64_t>& golden,
                                 const std::string& what) const {
  for (std::uint64_t addr = 0; addr < golden.size(); ++addr) {
    const std::uint64_t actual = machine.memory().ReadRaw(addr);
    if (actual != golden[addr]) {
      std::ostringstream os;
      os << "memory mismatch in " << what << " for kernel '" << kernel_.name()
         << "' at address " << addr << ": golden=0x" << std::hex << golden[addr]
         << " actual=0x" << actual;
      // Identify which symbol the address falls in, for debuggability.
      for (const ir::Symbol& sym : kernel_.symbols()) {
        if (sym.kind == ir::SymbolKind::kParam) {
          continue;
        }
        const std::uint64_t base = layout_.AddressOf(sym.id);
        const std::uint64_t size =
            sym.kind == ir::SymbolKind::kArray
                ? static_cast<std::uint64_t>(sym.array_size)
                : 1;
        if (addr >= base && addr < base + size) {
          os << std::dec << " (symbol " << sym.name << "[" << (addr - base) << "])";
          break;
        }
      }
      throw VerifyError(os.str());
    }
  }
}

model::Prediction KernelRunner::Predict(const RunConfig& config) const {
  const Prepared prepared = Prepare(config);
  compiler::CompileOptions options = config.compile;
  // Mirror Run: the compile must assume the queues it will execute on.
  options.assumed_queue_capacity = config.queue.capacity;
  analysis::ProfileData profile;
  if (config.collect_profile) {
    profile = analysis::ProfileData::Collect(kernel_, layout_, prepared.params,
                                             prepared.image, config.cache);
  }
  return model::PredictKernelOnWorkload(
      kernel_, options, config.collect_profile ? &profile : nullptr, layout_,
      prepared.params, prepared.image, config.cache);
}

KernelRun KernelRunner::Run(const RunConfig& config) const {
  const Prepared prepared = Prepare(config);
  const std::vector<std::uint64_t> golden = GoldenMemory(prepared);

  // ---- profile feedback (Section III-I.3) ----
  analysis::ProfileData profile;
  if (config.collect_profile) {
    profile = analysis::ProfileData::Collect(kernel_, layout_, prepared.params,
                                             prepared.image, config.cache);
  }

  KernelRun run;
  run.kernel_name = kernel_.name();

  // The static capacity-deadlock checker must reason about the queues the
  // code will actually run on.
  compiler::CompileOptions compile_options = config.compile;
  compile_options.assumed_queue_capacity = config.queue.capacity;

  // One measured run: to completion under the cycle budget, then verified
  // when asked.  Any throw reaches config.on_failure once, with the machine
  // intact, and then propagates.
  const auto measure = [&](sim::Machine& machine, const char* what,
                           const std::string& verify_what) {
    try {
      const sim::RunResult result =
          RunBounded(machine, config.max_cycles, kernel_.name(), what);
      if (config.verify) {
        CompareMemory(machine, golden, verify_what);
      }
      return result;
    } catch (const Error& e) {
      if (config.on_failure) {
        config.on_failure(machine, e);
      }
      throw;
    }
  };

  // ---- sequential baseline ----
  {
    const isa::Program program =
        compiler::CompileSequential(kernel_, layout_, compile_options);
    sim::Machine machine(MachineConfigFor(config, 1), program);
    LoadImage(machine, prepared.image);
    machine.StartCoreAt(0, "main");
    const sim::RunResult result =
        measure(machine, "sequential execution", "sequential codegen");
    run.seq_cycles = result.core0_halt_cycle;
    run.seq_instructions = result.instructions;
    run.threaded_stats += machine.threaded_stats();
  }

  // ---- fine-grained parallel ----
  {
    // Dynamic feedback for multi-version compilation: run each candidate
    // on the training image and report its cycles.
    compiler::PartitionEvaluator evaluator =
        [&](const isa::Program& program, int cores) -> std::uint64_t {
      // Train on the hardware the compiler assumes (paper methodology:
      // heuristics are tuned for the default 5-cycle queues even when the
      // deployment hardware differs, as in the Figure 13 sweep).
      RunConfig training = config;
      training.queue.transfer_latency = config.compile.assumed_transfer_latency;
      sim::Machine machine(MachineConfigFor(training, cores), program);
      LoadImage(machine, prepared.image);
      machine.StartCoreAt(0, compiler::CompiledParallel::kPrimaryEntry);
      for (int c = 1; c < cores; ++c) {
        machine.StartCoreAt(c, compiler::CompiledParallel::kDriverEntry);
      }
      return machine.Run().core0_halt_cycle;
    };
    // With a telemetry sink, the compile contributes its pipeline/pass
    // spans to the same event stream as the measured execution.
    compiler::PipelineInstrumentation compile_instrumentation;
    compile_instrumentation.telemetry = config.telemetry;
    const compiler::CompiledParallel compiled = compiler::CompileParallel(
        kernel_, layout_, compile_options,
        config.collect_profile ? &profile : nullptr,
        config.tune_by_simulation ? &evaluator : nullptr,
        config.telemetry != nullptr ? &compile_instrumentation : nullptr,
        config.cost_model);
    if (config.candidate_reports_out != nullptr) {
      *config.candidate_reports_out = compiled.candidate_reports;
    }
    run.cores_used = compiled.cores_used;
    run.initial_fibers = compiled.partition.initial_fibers;
    run.data_deps = compiled.partition.data_deps;
    run.load_balance = compiled.partition.load_balance;
    run.com_ops = compiled.comm.com_ops();

    // ---- measured parallel run ----
    {
      sim::Machine machine(MachineConfigFor(config, compiled.cores_used),
                           compiled.program);
      LoadImage(machine, prepared.image);
      machine.StartCoreAt(0, compiler::CompiledParallel::kPrimaryEntry);
      for (int c = 1; c < compiled.cores_used; ++c) {
        machine.StartCoreAt(c, compiler::CompiledParallel::kDriverEntry);
      }
      machine.SetTelemetry(config.telemetry);
      const sim::RunResult result =
          measure(machine, "parallel execution",
                  "parallel codegen (" + std::to_string(compiled.cores_used) +
                      " cores)");
      run.par_cycles = result.core0_halt_cycle;
      run.par_instructions = result.instructions;
      run.par_queue_transfers = machine.queues().TotalTransfers();
      run.queues_used = machine.queues().UsedChannelCount();
      run.max_queue_occupancy = machine.queues().MaxOccupancy();
      run.threaded_stats += machine.threaded_stats();
    }

    // ---- native-backend execution (real host threads + SPSC rings) ----
    // Runs after the sim measurements so every simulated number (and thus
    // every deterministic artifact byte) is untouched by the backend knob.
    // Both native forms are always verified against the golden model —
    // unverified wall-clock numbers would be meaningless.
    if (config.backend == compiler::BackendKind::kNative) {
      telemetry::ScopedSpan span(config.telemetry, "native", "native.run");
      const std::vector<std::uint64_t> params_raw =
          native::RawParams(kernel_, prepared.params);
      const std::size_t ring_capacity =
          config.queue.capacity > 0
              ? static_cast<std::size_t>(config.queue.capacity)
              : native::SpscRing::kDefaultCapacity;

      std::vector<std::uint64_t> seq_memory = prepared.image;
      const native::NativeRunStats seq_stats = native::ExecuteNative(
          {&kernel_, &layout_, nullptr}, params_raw, seq_memory);
      CompareNativeMemory(seq_memory, golden, kernel_.name(),
                          "native sequential execution");

      std::vector<std::uint64_t> par_memory = prepared.image;
      const native::NativeRunStats par_stats =
          native::ExecuteNative(compiled.lowered(), params_raw, par_memory,
                                ring_capacity);
      CompareNativeMemory(par_memory, golden, kernel_.name(),
                          "native parallel execution (" +
                              std::to_string(par_stats.cores) + " threads)");

      run.native_run = true;
      run.native_verified = true;
      run.native_seq_seconds = seq_stats.wall_seconds;
      run.native_par_seconds = par_stats.wall_seconds;
      run.native_speedup =
          par_stats.wall_seconds > 0.0
              ? seq_stats.wall_seconds / par_stats.wall_seconds
              : 0.0;
      run.native_queue_transfers = par_stats.queue_transfers;
      run.native_rings_used = par_stats.rings_used;
      run.native_cores = par_stats.cores;
      span.Note("native.queue.transfers",
                static_cast<std::int64_t>(par_stats.queue_transfers));
      span.Note("native.queue.rings",
                static_cast<std::int64_t>(par_stats.rings_used));
      span.Note("native.cores", par_stats.cores);
      span.Note("native.verified", 1);
    }
  }

  run.speedup = static_cast<double>(run.seq_cycles) /
                static_cast<double>(std::max<std::uint64_t>(1, run.par_cycles));
  return run;
}

telemetry::CounterRegistry KernelRunTelemetry(const KernelRun& run) {
  telemetry::CounterRegistry registry;
  // Artifact-visible entries: exactly the fgpar-bench-v1 point schema
  // (bench_artifact::AddKernelRunFields iterates these, so adding one here
  // changes artifact bytes — diagnostic entries below do not).
  registry.Metric("speedup", run.speedup);
  registry.Metric("load_balance", run.load_balance);
  registry.Count("seq_cycles", run.seq_cycles);
  registry.Count("par_cycles", run.par_cycles);
  registry.Count("seq_instructions", run.seq_instructions);
  registry.Count("par_instructions", run.par_instructions);
  registry.Count("queue_transfers", run.par_queue_transfers);
  registry.Count("cores_used", static_cast<std::uint64_t>(run.cores_used));
  registry.Count("com_ops", static_cast<std::uint64_t>(run.com_ops));
  registry.Count("queues_used", static_cast<std::uint64_t>(run.queues_used));
  // Always 0 (a failing run throws); kept so the point schema, and every
  // artifact golden, stays byte-identical.
  registry.Count("fallback_used", 0);
  registry.Count("retries", 0);
  // Diagnostic-only entries (tables, traces — never artifact points).
  registry.Count("initial_fibers",
                 static_cast<std::uint64_t>(run.initial_fibers),
                 /*artifact=*/false);
  registry.Count("data_deps", static_cast<std::uint64_t>(run.data_deps),
                 /*artifact=*/false);
  registry.Count("max_queue_occupancy",
                 static_cast<std::uint64_t>(run.max_queue_occupancy),
                 /*artifact=*/false);
  // Trace translation observability.  Deliberately artifact=false:
  // these vary with the resolved run tier while every artifact-visible
  // number above is tier-invariant, so bench artifacts stay byte-identical
  // across tiers.
  const sim::ThreadedStats& ts = run.threaded_stats;
  registry.Count("sim.threaded.blocks_translated", ts.blocks_translated,
                 /*artifact=*/false);
  registry.Count("sim.threaded.traces", ts.traces, /*artifact=*/false);
  registry.Count("sim.threaded.trace_enters", ts.trace_enters,
                 /*artifact=*/false);
  registry.Count("sim.threaded.trace_exits", ts.trace_exits,
                 /*artifact=*/false);
  registry.Count("sim.threaded.instructions", ts.threaded_instructions,
                 /*artifact=*/false);
  registry.Count("sim.threaded.deopt_memory", ts.deopt_memory,
                 /*artifact=*/false);
  registry.Count("sim.threaded.deopt_queue", ts.deopt_queue,
                 /*artifact=*/false);
  registry.Count("sim.threaded.deopt_call_ret", ts.deopt_call_ret,
                 /*artifact=*/false);
  registry.Count("sim.threaded.deopt_cap", ts.deopt_cap, /*artifact=*/false);
  registry.Count("sim.threaded.deopt_end", ts.deopt_end, /*artifact=*/false);
  registry.Count("sim.threaded.deopt_boundary", ts.deopt_boundary,
                 /*artifact=*/false);
  // Native-backend entries exist only for native runs, so sim-backend
  // artifacts keep their historical bytes.  The deterministic facts
  // (verification, ring traffic, thread count) are artifact-visible — they
  // define the BENCH_native.json point schema — while wall-clock numbers
  // are host-dependent and stay out of deterministic artifacts by design
  // (INTERNALS.md §13); benches report them via per-point host fields.
  if (run.native_run) {
    registry.Count("native.verified", run.native_verified ? 1 : 0);
    registry.Count("native.queue_transfers", run.native_queue_transfers);
    registry.Count("native.rings_used",
                   static_cast<std::uint64_t>(run.native_rings_used));
    registry.Count("native.cores",
                   static_cast<std::uint64_t>(run.native_cores));
    registry.Metric("native.wall_speedup", run.native_speedup,
                    /*artifact=*/false);
    registry.Metric("native.seq_seconds", run.native_seq_seconds,
                    /*artifact=*/false);
    registry.Metric("native.par_seconds", run.native_par_seconds,
                    /*artifact=*/false);
  }
  return registry;
}

}  // namespace fgpar::harness
