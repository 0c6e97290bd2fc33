#include "harness/runner.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>

#include "compiler/cost_model.hpp"
#include "ir/validate.hpp"
#include "native/codegen.hpp"
#include "native/executor.hpp"
#include "support/error.hpp"
#include "support/serial.hpp"

namespace fgpar::harness {

namespace {

/// Which measured run of a KernelRun: the machine starts different
/// entry points for each.
enum class RunKind : std::uint8_t { kSequential, kParallel };

/// The numbers Run reads from one finished, verified measured machine.
struct MeasuredRun {
  std::uint64_t core0_halt_cycle = 0;
  std::uint64_t cycles = 0;  // the last core's halt
  std::uint64_t instructions = 0;
  std::uint64_t queue_transfers = 0;
  int queues_used = 0;
  int max_queue_occupancy = 0;
  sim::ThreadedStats threaded_stats;
  std::vector<sim::CoreStats> core_stats;
};

/// The run-memo key: the machine identity bytes (program and
/// MachineConfig) plus everything else a measured run's numbers depend on
/// — the run tier (the threaded stats differ by tier), the entry points,
/// the workload seed (the loaded image and the golden memory) and whether
/// the run was verified.
std::string RunKey(const isa::Program& program,
                   const sim::MachineConfig& machine, RunKind kind,
                   const RunConfig& config) {
  ByteWriter w;
  w.U8(static_cast<std::uint8_t>(machine.force_tier));
  w.U8(static_cast<std::uint8_t>(kind));
  w.U64(config.seed);
  w.Bool(config.verify);
  const std::vector<std::uint8_t> identity =
      sim::Machine::IdentityBytes(program, machine);
  std::string key(identity.begin(), identity.end());
  key.append(w.bytes().begin(), w.bytes().end());
  return key;
}

/// Training simulations, the dynamic feedback of multi-version compilation
/// (paper Section III-I.1): each candidate runs on the prepared workload,
/// unbudgeted, and scores its core-0 halt cycle.  Training runs on the
/// hardware the compiler assumes (paper methodology: heuristics are tuned
/// for the default 5-cycle queues even when the deployment hardware
/// differs, as in the Figure 13 sweep).
class TrainingSimulations final : public compiler::CostModel {
 public:
  TrainingSimulations(const RunConfig& config, const ir::DataLayout& layout,
                      const std::vector<std::uint64_t>& image)
      : config_(config), layout_(layout), image_(image) {
    config_.queue.transfer_latency = config.compile.assumed_transfer_latency;
    config_.max_cycles = 0;
  }

  std::string_view name() const override { return "simulate"; }

  compiler::ScoredCandidate Score(
      const compiler::CompileState& /*state*/, const isa::Program& program,
      const compiler::ProgramPlan& /*plan*/,
      const compiler::CoreAssignment& assignment) const override {
    const int cores = static_cast<int>(assignment.partitions.size());
    MeasuredMachine machine(MeasuredMachineConfig(config_, layout_, cores),
                            program, image_);
    const std::uint64_t measured = machine.Run().core0_halt_cycle;
    compiler::ScoredCandidate scored;
    scored.cost = static_cast<double>(measured);
    scored.detail = "measured " + std::to_string(measured) +
                    " cycles on the training workload";
    scored.features.emplace_back("measured_cycles",
                                 static_cast<double>(measured));
    return scored;
  }

 private:
  RunConfig config_;
  const ir::DataLayout& layout_;
  const std::vector<std::uint64_t>& image_;
};

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

}  // namespace

PreparedWorkload::PreparedWorkload(const ir::Kernel& kernel,
                                   const ir::DataLayout& layout,
                                   const WorkloadInit& init, std::uint64_t seed)
    : params(kernel), image(layout.end(), 0) {
  init(seed, kernel, layout, params, image);
  params.CheckComplete(kernel);
  for (const ir::Symbol& sym : kernel.symbols()) {
    if (sym.kind == ir::SymbolKind::kParam) {
      image[layout.ParamAddressOf(sym.id)] = params.GetRaw(sym.id);
    }
  }
}

sim::MachineConfig MeasuredMachineConfig(const RunConfig& config,
                                         const ir::DataLayout& layout,
                                         int cores) {
  sim::MachineConfig machine;
  machine.num_cores = cores;
  machine.threads_per_core = std::min(config.threads_per_core, cores);
  machine.timing = config.timing;
  machine.cache = config.cache;
  machine.queue = config.queue;
  machine.force_tier = config.force_tier;
  if (config.max_cycles != 0) {
    machine.max_cycles = config.max_cycles;
  }
  // Round the data region up to a power-of-two-ish budget with headroom.
  std::uint64_t words = 1024;
  while (words < layout.end() + 64) {
    words *= 2;
  }
  machine.memory_words = words;
  return machine;
}

MeasuredMachine::MeasuredMachine(const sim::MachineConfig& config,
                                 const isa::Program& program,
                                 const std::vector<std::uint64_t>& image)
    : sim::Machine(config, program) {
  for (std::uint64_t addr = 0; addr < image.size(); ++addr) {
    memory().WriteRaw(addr, image[addr]);
  }
  StartCoreAt(0, compiler::CompiledParallel::kPrimaryEntry);
  for (int c = 1; c < config.num_cores; ++c) {
    StartCoreAt(c, compiler::CompiledParallel::kDriverEntry);
  }
}

/// What one workload seed determines.  Entries are built under the memo's
/// mutex, never change once built and are never erased, so references to
/// them stay valid, unlocked, for the runner's life.
struct KernelRunner::Workload {
  explicit Workload(PreparedWorkload prepared) : prepared(std::move(prepared)) {}

  PreparedWorkload prepared;
  /// Interpreted on the first Run.
  std::optional<std::vector<std::uint64_t>> golden;
  /// The original kernel's profile, per cache.
  std::map<sim::CacheConfig, analysis::ProfileData> profiles;
  /// Per (cache, collect_profile).
  std::map<std::pair<sim::CacheConfig, bool>, model::WorkloadPredictor>
      predictors;
};

struct KernelRunner::Memo {
  std::mutex mutex;  // guards both maps and every Workload in them
  std::map<std::uint64_t, Workload> workloads;  // by RunConfig::seed
  std::map<std::string, MeasuredRun> runs;  // by RunKey
};

KernelRunner::KernelRunner(const ir::Kernel& kernel, WorkloadInit init)
    : kernel_(kernel),
      layout_(kernel_, /*base=*/64),
      init_(std::move(init)),
      memo_(std::make_unique<Memo>()) {
  ir::CheckValid(kernel_);
}

KernelRunner::~KernelRunner() = default;

std::vector<std::uint64_t> KernelRunner::GoldenMemory(
    const PreparedWorkload& prepared) const {
  std::vector<std::uint64_t> memory = prepared.image;
  ir::Interpreter interp(kernel_, layout_, prepared.params, memory);
  interp.Run();
  return memory;
}

KernelRunner::Workload& KernelRunner::WorkloadFor(std::uint64_t seed) const {
  auto it = memo_->workloads.find(seed);
  if (it == memo_->workloads.end()) {
    it = memo_->workloads
             .try_emplace(seed, PreparedWorkload(kernel_, layout_, init_, seed))
             .first;
  }
  return it->second;
}

const analysis::ProfileData& KernelRunner::ProfileFor(
    Workload& workload, const sim::CacheConfig& cache) const {
  auto it = workload.profiles.find(cache);
  if (it == workload.profiles.end()) {
    it = workload.profiles
             .try_emplace(cache, analysis::ProfileData::Collect(
                                     kernel_, layout_, workload.prepared.params,
                                     workload.prepared.image, cache))
             .first;
  }
  return it->second;
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
  const std::lock_guard<std::mutex> lock(memo_->mutex);
  Workload& workload = WorkloadFor(config.seed);
  const analysis::ProfileData* profile =
      config.collect_profile ? &ProfileFor(workload, config.cache) : nullptr;
  model::WorkloadPredictor& predictor =
      workload.predictors
          .try_emplace(std::pair(config.cache, config.collect_profile),
                       kernel_, profile, layout_, workload.prepared.params,
                       workload.prepared.image, config.cache)
          .first->second;
  return predictor.Predict(config.compile);
}

compiler::CompiledParallel KernelRunner::Compile(
    const RunConfig& config,
    const compiler::PipelineInstrumentation* instrumentation) const {
  const Workload* workload = nullptr;
  const analysis::ProfileData* profile = nullptr;  // profile feedback (III-I.3)
  {
    const std::lock_guard<std::mutex> lock(memo_->mutex);
    Workload& entry = WorkloadFor(config.seed);
    if (config.collect_profile) {
      profile = &ProfileFor(entry, config.cache);
    }
    workload = &entry;
  }
  // The static capacity-deadlock checker must reason about the queues the
  // code will actually run on.
  compiler::CompileOptions options = config.compile;
  options.assumed_queue_capacity = config.queue.capacity;
  std::optional<TrainingSimulations> training;
  const compiler::CostModel* scorer = config.cost_model;
  if (scorer == nullptr && config.tune_by_simulation) {
    scorer = &training.emplace(config, layout_, workload->prepared.image);
  }
  return compiler::CompileParallel(kernel_, layout_, options, profile, scorer,
                                   instrumentation);
}

KernelRun KernelRunner::Run(const RunConfig& config) const {
  // With a telemetry sink, the compile contributes its pipeline/pass spans
  // to the same event stream as the measured execution.
  compiler::PipelineInstrumentation instrumentation;
  instrumentation.telemetry = config.telemetry;
  return Run(config, Compile(config, config.telemetry != nullptr
                                         ? &instrumentation
                                         : nullptr));
}

KernelRun KernelRunner::Run(const RunConfig& config,
                            const compiler::CompiledParallel& compiled) const {
  FGPAR_CHECK_MSG(compiled.layout == &layout_,
                  "KernelRunner::Run: the program was compiled by another "
                  "runner");
  const Workload* workload = nullptr;
  {
    const std::lock_guard<std::mutex> lock(memo_->mutex);
    Workload& entry = WorkloadFor(config.seed);
    if (!entry.golden.has_value()) {
      entry.golden = GoldenMemory(entry.prepared);
    }
    workload = &entry;
  }
  const PreparedWorkload& prepared = workload->prepared;
  const std::vector<std::uint64_t>& golden = *workload->golden;

  KernelRun run;
  run.kernel_name = kernel_.name();

  // One measured run: to completion under the cycle budget, then verified
  // when asked.  Any throw reaches config.on_failure once, with the machine
  // intact, and then propagates.  A run that completed is memoized, and an
  // identical later run returns its numbers without simulating — unless a
  // telemetry sink must see the run's events.
  const auto measure = [&](RunKind kind, const isa::Program& program,
                           int cores, const std::string& verify_what) {
    const sim::MachineConfig machine_config =
        MeasuredMachineConfig(config, layout_, cores);
    const bool memoize = config.telemetry == nullptr;
    std::string key;
    if (memoize) {
      key = RunKey(program, machine_config, kind, config);
      const std::lock_guard<std::mutex> lock(memo_->mutex);
      const auto it = memo_->runs.find(key);
      if (it != memo_->runs.end()) {
        return it->second;
      }
    }
    MeasuredMachine machine(machine_config, program, prepared.image);
    if (kind == RunKind::kParallel) {
      machine.SetTelemetry(config.telemetry);
    }
    MeasuredRun measured;
    try {
      sim::RunResult result;
      try {
        result = machine.Run();
      } catch (const sim::CycleBudgetError& e) {
        // Name the kernel and the run that reached the limit.
        throw sim::CycleBudgetError(
            "kernel '" + kernel_.name() + "': " +
            (kind == RunKind::kSequential ? "sequential" : "parallel") +
            " execution: " + e.what());
      }
      if (config.verify) {
        CompareMemory(machine, golden, verify_what);
      }
      std::vector<sim::CoreStats> core_stats;
      for (int c = 0; c < machine.num_cores(); ++c) {
        core_stats.push_back(machine.core(c).stats());
      }
      measured = {result.core0_halt_cycle, result.cycles,
                  result.instructions, machine.queues().TotalTransfers(),
                  machine.queues().UsedChannelCount(),
                  machine.queues().MaxOccupancy(), machine.threaded_stats(),
                  std::move(core_stats)};
    } catch (const Error& e) {
      if (config.on_failure) {
        config.on_failure(machine, e);
      }
      throw;
    }
    if (memoize) {
      // Two threads that missed the same key measured the same numbers;
      // the first insert wins.
      const std::lock_guard<std::mutex> lock(memo_->mutex);
      memo_->runs.try_emplace(std::move(key), measured);
    }
    return measured;
  };

  // ---- sequential baseline ----
  {
    const MeasuredRun measured =
        measure(RunKind::kSequential,
                compiler::CompileSequential(kernel_, layout_, config.compile),
                1, "sequential codegen");
    run.seq_cycles = measured.core0_halt_cycle;
    run.seq_instructions = measured.instructions;
    run.threaded_stats += measured.threaded_stats;
  }

  // ---- fine-grained parallel ----
  {
    run.cores_used = compiled.cores_used;
    run.initial_fibers = compiled.partition.initial_fibers;
    run.data_deps = compiled.partition.data_deps;
    run.load_balance = compiled.partition.load_balance;
    run.com_ops = compiled.plan.comm.com_ops();

    // ---- measured parallel run ----
    {
      const MeasuredRun measured = measure(
          RunKind::kParallel, compiled.program, compiled.cores_used,
          "parallel codegen (" + std::to_string(compiled.cores_used) +
              " cores)");
      run.par_cycles = measured.core0_halt_cycle;
      run.par_instructions = measured.instructions;
      run.par_queue_transfers = measured.queue_transfers;
      run.queues_used = measured.queues_used;
      run.max_queue_occupancy = measured.max_queue_occupancy;
      run.threaded_stats += measured.threaded_stats;
      run.par_machine_cycles = measured.cycles;
      run.par_core_stats = measured.core_stats;
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
