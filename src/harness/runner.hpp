// The compile–simulate–verify–measure pipeline used by tests, benches, and
// examples.
//
// Every kernel execution is checked three ways before any number is
// reported: the reference interpreter (golden model), the compiled
// sequential program on the simulator, and the compiled fine-grained
// parallel program on 2..N cores must all leave bit-identical memory.
// Speedup is sequential cycles / parallel cycles, measured at core 0's
// halt, exactly like the paper's "speedup over sequential execution time".
//
// Failure has one path: each measured run executes once, and a deadlock,
// verify mismatch, reached cycle limit, or any other machine error throws
// out of KernelRunner::Run (after RunConfig::on_failure has seen the
// failed machine).  Workload initialization derives from the single
// RunConfig::seed and multi-version tuning is deterministic, so any run —
// including a failing one — is bit-reproducible from one integer.
//
// A runner memoizes what depends only on the seed and on the options each
// step reads (docs/INTERNALS.md §14), for as long as it lives: the
// prepared workload, golden memory, original-kernel profiles and a
// model::WorkloadPredictor per seed, and each measured run that completed
// (and verified, when asked) per its program, MachineConfig, run tier,
// entry points, seed and verify flag.  Memoized answers are bit-identical
// to recomputed ones; a failing run is never stored, and a run with a
// telemetry sink always simulates.  Run and Predict may be called from
// several threads; one mutex guards the memo.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/profile.hpp"
#include "compiler/backend.hpp"
#include "compiler/compile.hpp"
#include "ir/interp.hpp"
#include "ir/kernel.hpp"
#include "ir/layout.hpp"
#include "model/analytic.hpp"
#include "sim/machine.hpp"
#include "support/telemetry/telemetry.hpp"

namespace fgpar::harness {

/// Fills parameter values and initial array contents.  Receives the run's
/// deterministic seed (RunConfig::seed), the kernel, its layout, the
/// parameter environment to populate, and the raw memory image (sized
/// layout.end()) to initialize.  Initializers are free to ignore the seed,
/// but seed-honouring initializers make the whole run reproducible from
/// RunConfig::seed alone.
using WorkloadInit =
    std::function<void(std::uint64_t seed, const ir::Kernel&,
                       const ir::DataLayout&, ir::ParamEnv&,
                       std::vector<std::uint64_t>&)>;

/// The workload `init` prepares for `seed`: the parameter values and the
/// initial memory image (sized layout.end()), with every parameter also
/// published into the layout's parameter block so compiled code can load
/// it at startup.
struct PreparedWorkload {
  PreparedWorkload(const ir::Kernel& kernel, const ir::DataLayout& layout,
                   const WorkloadInit& init, std::uint64_t seed);

  ir::ParamEnv params;
  std::vector<std::uint64_t> image;
};

/// Thrown when a simulated execution's memory differs from the golden
/// model.  Distinguished from other errors so callers can tell a wrong
/// result from a machine that failed to finish.
class VerifyError : public Error {
 public:
  explicit VerifyError(std::string message) : Error(std::move(message)) {}
};

struct RunConfig {
  compiler::CompileOptions compile;
  sim::QueueConfig queue;      // paper defaults: 20 slots, 5 cycles
  sim::CacheConfig cache;
  sim::CoreTiming timing;
  /// SMT mode: hardware threads per physical core (Section II's untested
  /// "multiple hardware threads on the same core" option).  The compiled
  /// code is identical; only the machine changes.
  int threads_per_core = 1;
  bool verify = true;          // compare all executions bit-exactly
  bool collect_profile = true; // profile feedback for the cost model
  /// Multi-version compilation (paper Section III-I.1): compile every
  /// candidate partitioning and keep the one that simulates fastest on the
  /// training workload.  When false, the compiler's static makespan
  /// objective chooses.
  bool tune_by_simulation = true;
  /// Select-stage cost model (non-owning; null = the default behaviour
  /// above).  When set, candidates are enumerated and scored by this model
  /// with zero training simulations — it takes precedence over
  /// tune_by_simulation (see KernelRunner::Compile).
  const compiler::CostModel* cost_model = nullptr;
  /// The single deterministic seed for the run: workload initialization
  /// derives from it (multi-version tuning is already deterministic).  The
  /// default reproduces the historical SequoiaInit workloads.
  std::uint64_t seed = 0x5EED;
  /// Pins every simulated machine to one run tier (see
  /// MachineConfig::force_tier; kAuto runs the fast loop wherever it is
  /// eligible).  Results are bit-identical across tiers — this knob exists
  /// so fgparc --tier can pin the reference loop and the tier-equivalence
  /// tests can demand it.
  sim::RunTier force_tier = sim::RunTier::kAuto;
  /// Execution backend.  kSim (default) runs everything on the simulator.
  /// kNative additionally executes the kernel for real on host threads —
  /// sequential closures on one thread, the selected partition on one
  /// pinned std::thread per core with enq/deq on SPSC rings sized
  /// queue.capacity — verifies both memories against the golden model, and
  /// records measured wall-clock numbers in KernelRun::native_*.  The sim
  /// measurements (and thus every deterministic artifact byte) are
  /// unchanged; native timing is wall-clock-only by design.
  compiler::BackendKind backend = compiler::BackendKind::kSim;
  /// Simulated-cycle budget for the measured sequential and parallel
  /// executions: their MachineConfig::max_cycles (0 = the machine
  /// default).  A run still going at this cycle stops there and throws
  /// sim::CycleBudgetError — the one per-point bound a supervised sweep
  /// sets (fig12 --cycle-budget).  Golden-model interpretation, profiling
  /// and multi-version tuning are never budgeted.
  std::uint64_t max_cycles = 0;
  /// Observation hook invoked once, with the failed machine still intact,
  /// when the measured sequential or parallel run or its verify throws;
  /// the error then propagates out of Run.  Used to capture a state
  /// snapshot for repro bundles.  Hook errors propagate instead.
  std::function<void(const sim::Machine& machine, const Error& error)>
      on_failure;
  /// Telemetry sink for the run (non-owning; null = off, keeping every
  /// machine on the fast path).  When set, the parallel compile emits
  /// pipeline/pass spans and the measured parallel run emits sim events.
  /// The golden model, the sequential baseline, and the multi-version
  /// tuning runs stay untraced — they are reference measurements, not the
  /// subject of the trace.
  telemetry::TelemetrySink* telemetry = nullptr;
};

/// The MachineConfig of a measured run of `config` on `cores` cores: its
/// timing, caches, queues, SMT width, run tier and cycle budget, with a
/// memory sized for `layout` plus headroom.
sim::MachineConfig MeasuredMachineConfig(const RunConfig& config,
                                         const ir::DataLayout& layout,
                                         int cores);

/// A machine set up the way KernelRunner measures a program: `program` on
/// `config`, memory loaded with `image`, core 0 started at the primary
/// entry (a sequential program's entry too) and every other core at the
/// driver entry.
class MeasuredMachine : public sim::Machine {
 public:
  MeasuredMachine(const sim::MachineConfig& config, const isa::Program& program,
                  const std::vector<std::uint64_t>& image);
};

struct KernelRun {
  std::string kernel_name;
  std::uint64_t seq_cycles = 0;
  std::uint64_t par_cycles = 0;
  double speedup = 0.0;
  int cores_used = 0;

  // Table III statistics.
  int initial_fibers = 0;
  int data_deps = 0;
  double load_balance = 0.0;
  int com_ops = 0;
  int queues_used = 0;

  // Extra diagnostics.
  std::uint64_t seq_instructions = 0;
  std::uint64_t par_instructions = 0;
  std::uint64_t par_queue_transfers = 0;
  int max_queue_occupancy = 0;  // high-water mark of any single queue

  // The measured parallel machine in detail: the cycle its last core
  // halted (par_cycles is core 0's halt) and each core's counters.  Never
  // journaled and never in a bench artifact.
  std::uint64_t par_machine_cycles = 0;
  std::vector<sim::CoreStats> par_core_stats;

  // Always false / empty: a failing run throws instead.  Kept only for
  // the end-to-end benchmark's readers (bench/e2e).
  bool fallback_used = false;
  std::string failure_reason;

  // Trace translation/deopt counters, summed over the measured sequential
  // and parallel machines (sim.threaded.* in the registry; all zero unless
  // a single-core machine ran under the auto tier).
  sim::ThreadedStats threaded_stats;

  // Native-backend measurements (RunConfig::backend == kNative only; never
  // journaled — fgpar_ckpt_v1 carries sim results, and wall-clock numbers
  // are host-dependent by nature).
  bool native_run = false;       // the native backend executed this kernel
  bool native_verified = false;  // both native memories matched the golden model
  double native_seq_seconds = 0.0;
  double native_par_seconds = 0.0;
  double native_speedup = 0.0;   // measured wall-clock seq/par
  std::uint64_t native_queue_transfers = 0;
  int native_rings_used = 0;
  int native_cores = 0;
};

/// The single KernelRun -> named-statistics mapping.  Every consumer of a
/// run's numbers reads this registry instead of plumbing struct fields by
/// hand: bench artifacts iterate the artifact-visible subset (exactly the
/// fgpar-bench-v1 point schema), while wider tables (table3) also read
/// the diagnostic-only entries (initial_fibers, data_deps,
/// max_queue_occupancy).
telemetry::CounterRegistry KernelRunTelemetry(const KernelRun& run);

class KernelRunner {
 public:
  KernelRunner(const ir::Kernel& kernel, WorkloadInit init);
  ~KernelRunner();
  /// The memo points into kernel_ and layout_, so a runner stays where it
  /// was built: no copies, no moves.
  KernelRunner(const KernelRunner&) = delete;
  KernelRunner& operator=(const KernelRunner&) = delete;

  /// Runs the full pipeline for `config`: Run(config, Compile(config, …)),
  /// where the compile emits its pipeline and pass spans to
  /// config.telemetry when one is set.  Throws on compile errors and on
  /// any failure of the measured runs (deadlock, verify mismatch, cycle
  /// limit, machine checks); config.on_failure sees the latter first.
  KernelRun Run(const RunConfig& config) const;

  /// Measures `compiled`, which Compile(config, …) on this runner returned:
  /// the sequential baseline, then `compiled` itself, so a caller can show
  /// the very program it has measured (fgparc --print-plan --run).
  KernelRun Run(const RunConfig& config,
                const compiler::CompiledParallel& compiled) const;

  /// The parallel program Run measures under `config`.  The compiler is fed
  /// the original kernel's profile on the seed's workload when
  /// collect_profile is set, and its capacity check assumes queue.capacity.
  /// Candidates are scored by cost_model if set, else by training
  /// simulations when tune_by_simulation is set, else by the static
  /// objective.  `instrumentation` (IR dumps, pass spans) observes the
  /// compile without changing it.  Compiles are not memoized.
  compiler::CompiledParallel Compile(
      const RunConfig& config,
      const compiler::PipelineInstrumentation* instrumentation = nullptr) const;

  /// Whole-kernel analytic prediction under `config` — no simulation.
  /// Reproduces the candidate a compile under `config` would select
  /// (rewrite front half + static merge over the same profile feedback),
  /// then costs it at execution granularity against the prepared workload
  /// (model::PredictKernelOnWorkload).  The autotuner ranks its search
  /// space with this; the predictor cross-validation bench scores it.
  model::Prediction Predict(const RunConfig& config) const;

  const ir::Kernel& kernel() const { return kernel_; }
  const ir::DataLayout& layout() const { return layout_; }

 private:
  struct Workload;
  struct Memo;
  std::vector<std::uint64_t> GoldenMemory(const PreparedWorkload& prepared) const;
  /// The memoized workload of `seed`, prepared on first use.  The caller
  /// holds the memo's mutex.
  Workload& WorkloadFor(std::uint64_t seed) const;
  /// The original kernel's profile of `workload` under `cache`, collected
  /// on first use.  The caller holds the memo's mutex.
  const analysis::ProfileData& ProfileFor(Workload& workload,
                                          const sim::CacheConfig& cache) const;
  void CompareMemory(const sim::Machine& machine,
                     const std::vector<std::uint64_t>& golden,
                     const std::string& what) const;

  ir::Kernel kernel_;
  ir::DataLayout layout_;
  WorkloadInit init_;
  std::unique_ptr<Memo> memo_;
};

}  // namespace fgpar::harness
