// fgpar_bench: one benchmark for the verified compile -> simulate pipeline.
//
//   fgpar_bench --workload <name> --seed <n> [--trace <0|1>] [--smoke]
//
// A run sets up the workload at least three times (the median is
// setup_s), then runs the workload's fixed number of closed-loop rounds of
// points on one client thread, so every commit measures the same work on
// the same inputs.  Round r's inputs derive from MixSeed(seed, r); the
// library only ever receives the generated kernels and data.  Every point
// is verified bit-exactly against the reference interpreter.
//
// With --trace 1, the run makes round 0 only and follows it with a traced
// replay of the same round that calls the layers' public entry points one
// at a time inside ledger spans (ledger.hpp).  The replay must reproduce
// the untraced round's simulated cycles and instructions exactly; the run
// then reports per-layer metrics instead of end-to-end ones and writes the
// spans to trace_<workload>.json in the working directory.  --smoke runs
// one round on a three-kernel subset.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// README.md lists the workloads, the metrics and why each was chosen.
#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/profile.hpp"
#include "compiler/compile.hpp"
#include "frontend/parser.hpp"
#include "harness/autotune.hpp"
#include "harness/runner.hpp"
#include "ir/interp.hpp"
#include "ir/validate.hpp"
#include "kernels/experiments.hpp"
#include "kernels/sequoia.hpp"
#include "ledger.hpp"
#include "model/analytic.hpp"
#include "native/codegen.hpp"
#include "native/executor.hpp"
#include "sim/machine.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace fgpar::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Shortest text that reads back as the same double.
std::string Num(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

void Count(Ledger* ledger, const std::string& name, double value) {
  if (ledger != nullptr) {
    ledger->Add(name, value);
  }
}

// ---------------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------------

/// A Table-I kernel with every array and the trip count scaled by `factor`
/// (the texts declare their arrays as [1024]).
kernels::SequoiaKernel ScaledKernel(kernels::SequoiaKernel kernel, int factor) {
  const std::string from = "[1024]";
  const std::string to = "[" + std::to_string(1024 * factor) + "]";
  for (std::size_t pos = kernel.source.find(from); pos != std::string::npos;
       pos = kernel.source.find(from, pos + to.size())) {
    kernel.source.replace(pos, from.size(), to);
  }
  kernel.trip *= factor;
  return kernel;
}

std::vector<kernels::SequoiaKernel> TableOneKernels(bool smoke, int factor) {
  std::vector<kernels::SequoiaKernel> out;
  for (const kernels::SequoiaKernel& kernel : kernels::SequoiaKernels()) {
    out.push_back(factor == 1 ? kernel : ScaledKernel(kernel, factor));
    if (smoke && out.size() == 3) {
      break;  // the fig12 --smoke subset
    }
  }
  return out;
}

/// A seeded synthetic kernel of `stmts` temp definitions, each stored to
/// its own output array.  Every definition combines 2-4 input elements and,
/// with probability 0.4, an earlier temp, so fibers form dependence chains
/// for the merge stage to weigh.
std::string WideKernelText(std::uint64_t seed, int stmts) {
  constexpr int kInputs = 8;
  Rng rng(seed);
  std::ostringstream os;
  os << "kernel wide {\n  param i64 n;\n";
  for (int a = 0; a < kInputs; ++a) {
    os << "  array f64 a" << a << "[1024];\n";
  }
  for (int s = 0; s < stmts; ++s) {
    os << "  array f64 o" << s << "[1024];\n";
  }
  os << "  loop i = 2 .. n {\n";
  for (int s = 0; s < stmts; ++s) {
    os << "    f64 t" << s << " = ";
    const std::int64_t terms = rng.NextInt(2, 4);
    for (std::int64_t t = 0; t < terms; ++t) {
      if (t > 0) {
        os << (rng.NextBool() ? " + " : " * ");
      }
      os << "a" << rng.NextInt(0, kInputs - 1) << "[i+" << rng.NextInt(0, 2) << "]";
    }
    if (s > 0 && rng.NextBool(0.4)) {
      os << " - t" << rng.NextInt(0, s - 1);
    }
    os << ";\n    o" << s << "[i] = t" << s << " * " << s + 1 << ".5;\n";
  }
  os << "  }\n}\n";
  return os.str();
}

/// Seeded data for WideKernelText kernels: f64 arrays in [0.5, 2), n = trip.
harness::WorkloadInit WideInit(std::int64_t trip) {
  return [trip](std::uint64_t seed, const ir::Kernel& kernel,
                const ir::DataLayout& layout, ir::ParamEnv& params,
                std::vector<std::uint64_t>& memory) {
    Rng rng(seed);
    for (const ir::Symbol& sym : kernel.symbols()) {
      if (sym.kind == ir::SymbolKind::kParam) {
        params.SetI64(sym.id, trip);
      } else if (sym.kind == ir::SymbolKind::kArray) {
        const std::uint64_t base = layout.AddressOf(sym.id);
        for (std::int64_t i = 0; i < sym.array_size; ++i) {
          memory[base + static_cast<std::uint64_t>(i)] =
              std::bit_cast<std::uint64_t>(rng.NextDouble(0.5, 2.0));
        }
      }
    }
  };
}

// ---------------------------------------------------------------------------
// The verified pipeline, one layer call at a time
// ---------------------------------------------------------------------------

/// The simulated numbers a point must reproduce when replayed traced.
struct SimNumbers {
  std::uint64_t seq_cycles = 0;
  std::uint64_t par_cycles = 0;
  std::uint64_t seq_instructions = 0;
  std::uint64_t par_instructions = 0;
  double speedup = 0.0;
};

/// The inputs KernelRunner builds privately before it runs anything.
struct Prepared {
  explicit Prepared(const ir::Kernel& kernel) : params(kernel) {}
  ir::ParamEnv params;
  std::vector<std::uint64_t> image;   // initial memory incl. the param block
  std::vector<std::uint64_t> golden;  // after the reference interpreter
};

Prepared Prepare(const ir::Kernel& kernel, const ir::DataLayout& layout,
                 const harness::WorkloadInit& init, std::uint64_t seed) {
  Prepared prepared(kernel);
  prepared.image.assign(layout.end(), 0);
  init(seed, kernel, layout, prepared.params, prepared.image);
  prepared.params.CheckComplete(kernel);
  for (const ir::Symbol& sym : kernel.symbols()) {
    if (sym.kind == ir::SymbolKind::kParam) {
      prepared.image[layout.ParamAddressOf(sym.id)] = prepared.params.GetRaw(sym.id);
    }
  }
  return prepared;
}

sim::MachineConfig MachineFor(const harness::RunConfig& config,
                              const ir::DataLayout& layout, int cores) {
  sim::MachineConfig machine;
  machine.num_cores = cores;
  machine.threads_per_core = std::min(config.threads_per_core, cores);
  machine.timing = config.timing;
  machine.cache = config.cache;
  machine.queue = config.queue;
  machine.memory_words = 1024;
  while (machine.memory_words < layout.end() + 64) {
    machine.memory_words *= 2;
  }
  return machine;
}

template <typename ReadWord>
void CompareWords(const std::vector<std::uint64_t>& golden, ReadWord read,
                  const std::string& what) {
  for (std::size_t addr = 0; addr < golden.size(); ++addr) {
    if (read(addr) != golden[addr]) {
      throw harness::VerifyError("memory mismatch in " + what + " at address " +
                                 std::to_string(addr));
    }
  }
}

/// Loads the image, runs the machine to completion and verifies its memory.
sim::RunResult SimulateVerified(const harness::RunConfig& config,
                                const ir::DataLayout& layout, int cores,
                                const isa::Program& program,
                                const Prepared& prepared, const char* span,
                                Ledger* ledger) {
  std::optional<sim::Machine> machine;
  sim::RunResult result;
  {
    Scope scope(ledger, span);
    machine.emplace(MachineFor(config, layout, cores), program);
    for (std::size_t addr = 0; addr < prepared.image.size(); ++addr) {
      machine->memory().WriteRaw(addr, prepared.image[addr]);
    }
    machine->StartCoreAt(0, compiler::CompiledParallel::kPrimaryEntry);
    for (int c = 1; c < cores; ++c) {
      machine->StartCoreAt(c, compiler::CompiledParallel::kDriverEntry);
    }
    result = machine->Run();
  }
  {
    Scope scope(ledger, "harness.verify");
    CompareWords(prepared.golden,
                 [&](std::size_t addr) { return machine->memory().ReadRaw(addr); }, span);
  }
  const std::string stem = span;
  Count(ledger, stem + ".instructions", static_cast<double>(result.instructions));
  Count(ledger, stem + ".cycles", static_cast<double>(result.core0_halt_cycle));
  Count(ledger, stem + ".queue_transfers",
        static_cast<double>(machine->queues().TotalTransfers()));
  Count(ledger, "sim.threaded.instructions",
        static_cast<double>(machine->threaded_stats().threaded_instructions));
  return result;
}

struct PipelineOutput {
  explicit PipelineOutput(const ir::Kernel& kernel) : prepared(kernel) {}
  SimNumbers numbers;
  Prepared prepared;
  std::optional<compiler::CompiledParallel> compiled;
};

/// KernelRunner::Run's steps for a statically selected, fault-free,
/// verified run, each call into a layer inside its own span.
PipelineOutput RunPipeline(const ir::Kernel& kernel, const ir::DataLayout& layout,
                           const harness::WorkloadInit& init,
                           const harness::RunConfig& config, Ledger* ledger) {
  FGPAR_CHECK_MSG(!config.tune_by_simulation && config.cost_model == nullptr &&
                      config.collect_profile && config.verify,
                  "the decomposed pipeline mirrors static-select verified runs only");
  PipelineOutput out(kernel);
  {
    Scope scope(ledger, "harness.prepare");
    out.prepared = Prepare(kernel, layout, init, config.seed);
  }
  {
    Scope scope(ledger, "ir.interp");
    out.prepared.golden = out.prepared.image;
    ir::Interpreter interp(kernel, layout, out.prepared.params, out.prepared.golden);
    Count(ledger, "ir.interp.stmts", static_cast<double>(interp.Run().stmts_executed));
  }
  analysis::ProfileData profile;
  {
    Scope scope(ledger, "analysis.profile");
    profile = analysis::ProfileData::Collect(kernel, layout, out.prepared.params,
                                             out.prepared.image, config.cache);
  }

  compiler::CompileOptions options = config.compile;
  options.assumed_queue_capacity = config.queue.capacity;
  compiler::PipelineInstrumentation instrumentation;
  instrumentation.telemetry = ledger;
  const compiler::PipelineInstrumentation* instrument =
      ledger != nullptr ? &instrumentation : nullptr;

  std::optional<isa::Program> sequential;
  {
    Scope scope(ledger, "compiler.seq");
    sequential.emplace(compiler::CompileSequential(kernel, layout, options, instrument));
  }
  const sim::RunResult seq = SimulateVerified(config, layout, 1, *sequential,
                                              out.prepared, "sim.seq", ledger);
  {
    Scope scope(ledger, "compiler.par");
    out.compiled.emplace(compiler::CompileParallel(kernel, layout, options, &profile,
                                                   nullptr, instrument));
  }
  const compiler::CompiledParallel& compiled = *out.compiled;
  std::int64_t built = 0;
  for (const compiler::CandidateReport& report : compiled.candidate_reports) {
    built += report.built ? 1 : 0;
  }
  Count(ledger, "compiler.fibers", compiled.partition.initial_fibers);
  Count(ledger, "compiler.select.built", static_cast<double>(built));
  Count(ledger, "compiler.select.candidates",
        static_cast<double>(compiled.candidate_reports.size()));
  const sim::RunResult par =
      SimulateVerified(config, layout, compiled.cores_used, compiled.program,
                       out.prepared, "sim.par", ledger);

  out.numbers.seq_cycles = seq.core0_halt_cycle;
  out.numbers.par_cycles = par.core0_halt_cycle;
  out.numbers.seq_instructions = seq.instructions;
  out.numbers.par_instructions = par.instructions;
  out.numbers.speedup = static_cast<double>(seq.core0_halt_cycle) /
                        static_cast<double>(std::max<std::uint64_t>(1, par.core0_halt_cycle));
  return out;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct PointResult {
  bool ok = true;
  std::string error;
  double speedup = 0.0;  // simulated speedup (the tuned best on autotune)
  /// Values the traced replay of this point must reproduce exactly.
  std::vector<double> check;
  // Native workload only: the executor's own wall-clock measurements.
  double native_seq_ms = 0.0;
  double native_par_ms = 0.0;
};

/// One verified point as the figure binaries run it (kernels::RunKernel:
/// parse, build the runner, Run); traced, the same steps one layer at a time.
PointResult PipelinePoint(const std::string& text, const harness::WorkloadInit& init,
                          const harness::RunConfig& config, Ledger* ledger) {
  PointResult result;
  SimNumbers numbers;
  if (ledger == nullptr) {
    const ir::Kernel kernel = frontend::ParseKernel(text);
    const harness::KernelRunner runner(kernel, init);
    const harness::KernelRun run = runner.Run(config);
    result.ok = !run.fallback_used;
    result.error = run.failure_reason;
    numbers = {run.seq_cycles, run.par_cycles, run.seq_instructions,
               run.par_instructions, run.speedup};
  } else {
    Scope point(ledger, std::string(kPointSpan));
    std::optional<ir::Kernel> kernel;
    {
      Scope scope(ledger, "frontend.parse");
      kernel.emplace(frontend::ParseKernel(text));
    }
    std::optional<ir::DataLayout> layout;
    {
      Scope scope(ledger, "ir.layout");
      layout.emplace(*kernel, /*base=*/64);
      ir::CheckValid(*kernel);
    }
    numbers = RunPipeline(*kernel, *layout, init, config, ledger).numbers;
  }
  result.speedup = numbers.speedup;
  result.check = {static_cast<double>(numbers.seq_cycles),
                  static_cast<double>(numbers.par_cycles),
                  static_cast<double>(numbers.seq_instructions),
                  static_cast<double>(numbers.par_instructions)};
  return result;
}

void RequireOk(const PointResult& result) {
  FGPAR_CHECK_MSG(result.ok, "set-up point failed: " + result.error);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything setup_s measures: builds round 0's inputs, parses every
  /// kernel and runs one verified point per distinct kernel.
  virtual void Setup(Ledger* ledger) = 0;
  virtual std::size_t RoundSize() const = 0;
  /// Rounds every untraced run makes, however long they take: sized so a
  /// run measures about BENCHMARK.json's run_seconds on the reference host
  /// (README.md) and puts at least ten points beyond point_ms_p90.
  virtual int Rounds() const = 0;
  /// Generates round `round`'s inputs, outside any point.
  virtual void BeginRound(int /*round*/) {}
  virtual PointResult RunPoint(int round, std::size_t index, Ledger* ledger) = 0;
};

/// fig12 / sim_large: the 18 Table-I kernels x {2, 4} cores at Section V
/// defaults, a new data seed each round.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, bool smoke, int scale, int rounds)
      : seed_(seed), rounds_(rounds), kernels_(TableOneKernels(smoke, scale)) {}

  void Setup(Ledger* ledger) override {
    for (std::size_t k = 0; k < kernels_.size(); ++k) {
      RequireOk(RunPoint(0, kernels_.size() + k, ledger));  // the 4-core point
    }
  }
  std::size_t RoundSize() const override { return 2 * kernels_.size(); }
  int Rounds() const override { return rounds_; }
  PointResult RunPoint(int round, std::size_t index, Ledger* ledger) override {
    const kernels::SequoiaKernel& kernel = kernels_[index % kernels_.size()];
    kernels::ExperimentConfig experiment;
    experiment.cores = index < kernels_.size() ? 2 : 4;
    harness::RunConfig config = kernels::ToRunConfig(experiment);
    config.seed = MixSeed(seed_, static_cast<std::uint64_t>(round));
    return PipelinePoint(kernel.source, kernels::SequoiaInit(kernel), config, ledger);
  }

 private:
  std::uint64_t seed_;
  int rounds_;
  std::vector<kernels::SequoiaKernel> kernels_;
};

/// wide_compile: seeded synthetic kernels as wide as the widest Table-I
/// loops, new texts every round; 4 cores.
class WideCompileWorkload final : public Workload {
 public:
  // 11-14 temp definitions give 24-36 fibers (about 29 on average), the
  // width of the widest Table-I kernels (28-34: lammps-3, irs-1/4/5,
  // umt2k-4).  A 30-iteration loop keeps simulation a small share.
  static constexpr int kSizes[] = {11, 12, 13, 14};
  static constexpr std::int64_t kTrip = 32;

  explicit WideCompileWorkload(std::uint64_t seed) : seed_(seed) {}

  void Setup(Ledger* ledger) override {
    BeginRound(0);
    for (std::size_t i = 0; i < RoundSize(); ++i) {
      RequireOk(RunPoint(0, i, ledger));
    }
  }
  std::size_t RoundSize() const override { return std::size(kSizes); }
  int Rounds() const override { return 650; }
  void BeginRound(int round) override {
    const std::uint64_t round_seed = MixSeed(seed_, static_cast<std::uint64_t>(round));
    texts_.clear();
    for (std::size_t i = 0; i < RoundSize(); ++i) {
      texts_.push_back(WideKernelText(MixSeed(round_seed, i), kSizes[i]));
    }
  }
  PointResult RunPoint(int round, std::size_t index, Ledger* ledger) override {
    kernels::ExperimentConfig experiment;
    experiment.cores = 4;
    harness::RunConfig config = kernels::ToRunConfig(experiment);
    config.seed = MixSeed(seed_, static_cast<std::uint64_t>(round));
    return PipelinePoint(texts_[index], WideInit(kTrip), config, ledger);
  }

 private:
  std::uint64_t seed_;
  std::vector<std::string> texts_;
};

/// autotune: harness::AutotuneKernel over the Table-I kernels with the
/// default 54-point TuneSpace and one sweep thread.
class AutotuneWorkload final : public Workload {
 public:
  AutotuneWorkload(std::uint64_t seed, bool smoke)
      : seed_(seed), kernels_(TableOneKernels(smoke, 1)) {}

  void Setup(Ledger* ledger) override {
    // One verified default-config point per kernel: the run the tuner
    // always simulates.
    for (const kernels::SequoiaKernel& kernel : kernels_) {
      RequireOk(PipelinePoint(
          kernel.source, kernels::SequoiaInit(kernel),
          harness::ApplyTunePoint(Base(MixSeed(seed_, 0)), harness::TunePoint{}), ledger));
    }
  }
  std::size_t RoundSize() const override { return kernels_.size(); }
  // 108 points: ten beyond the 90th percentile.
  int Rounds() const override { return 6; }
  PointResult RunPoint(int round, std::size_t index, Ledger* ledger) override {
    const kernels::SequoiaKernel& source = kernels_[index];
    const harness::WorkloadInit init = kernels::SequoiaInit(source);
    harness::TuneOptions options;
    options.seed = MixSeed(seed_, static_cast<std::uint64_t>(round));
    options.sweep_threads = 1;
    std::optional<ir::Kernel> kernel;
    harness::TuneResult tuned;
    {
      Scope point(ledger, std::string(kPointSpan));
      {
        Scope scope(ledger, "frontend.parse");
        kernel.emplace(frontend::ParseKernel(source.source));
      }
      tuned = harness::AutotuneKernel(*kernel, init, harness::TuneSpace{}, options);
    }

    PointResult result;
    result.speedup = tuned.best_speedup;
    result.check = {tuned.best_speedup, tuned.default_speedup,
                    static_cast<double>(tuned.best_index),
                    static_cast<double>(tuned.simulated)};
    if (tuned.simulated != tuned.frontier_size ||
        tuned.best_speedup < tuned.default_speedup) {
      result.ok = false;
      result.error = "autotune simulated " + std::to_string(tuned.simulated) + " of " +
                     std::to_string(tuned.frontier_size) + " frontier points";
    }
    for (const harness::TuneCandidate& candidate : tuned.candidates) {
      if (candidate.simulated && !candidate.note.empty()) {
        result.ok = false;
        result.error = candidate.note;
      }
    }
    if (ledger != nullptr) {
      Replay(*kernel, init, options.seed, tuned, ledger, result);
    }
    return result;
  }

 private:
  /// AutotuneKernel's base run configuration.
  static harness::RunConfig Base(std::uint64_t seed) {
    harness::RunConfig base;
    base.seed = seed;
    base.tune_by_simulation = false;
    return base;
  }

  /// Re-times the autotuner's layer calls for one traced point: Predict on
  /// every enumerated candidate and the verified pipeline on every
  /// candidate the result marks simulated.  Each must reproduce the
  /// tuner's own number exactly.
  static void Replay(const ir::Kernel& kernel, const harness::WorkloadInit& init,
                     std::uint64_t seed, const harness::TuneResult& tuned,
                     Ledger* ledger, PointResult& result) {
    Scope replay(ledger, std::string(kReplaySpan));
    std::optional<ir::DataLayout> layout;
    {
      Scope scope(ledger, "ir.layout");
      layout.emplace(kernel, /*base=*/64);
      ir::CheckValid(kernel);
    }
    const auto mismatch = [&](const harness::TuneCandidate& candidate,
                              const char* what) {
      result.ok = false;
      result.error = std::string("traced replay changed the ") + what + " of " +
                     harness::TunePointLabel(candidate.point);
    };
    for (const harness::TuneCandidate& candidate : tuned.candidates) {
      const harness::RunConfig config = harness::ApplyTunePoint(Base(seed), candidate.point);
      try {
        std::optional<Prepared> prepared;
        {
          Scope scope(ledger, "harness.prepare");
          prepared.emplace(Prepare(kernel, *layout, init, config.seed));
        }
        analysis::ProfileData profile;
        {
          Scope scope(ledger, "analysis.profile");
          profile = analysis::ProfileData::Collect(kernel, *layout, prepared->params,
                                                   prepared->image, config.cache);
        }
        compiler::CompileOptions options = config.compile;
        options.assumed_queue_capacity = config.queue.capacity;
        double predicted = 0.0;
        {
          Scope scope(ledger, "model.predict");
          predicted = model::PredictKernelOnWorkload(kernel, options, &profile, *layout,
                                                     prepared->params, prepared->image,
                                                     config.cache)
                          .speedup;
        }
        if (!candidate.feasible || predicted != candidate.predicted_speedup) {
          mismatch(candidate, "prediction");
        }
      } catch (const Error&) {
        if (candidate.feasible) {
          mismatch(candidate, "feasibility");
        }
      }
    }
    for (const harness::TuneCandidate& candidate : tuned.candidates) {
      if (!candidate.simulated) {
        continue;
      }
      const auto start = Clock::now();
      const SimNumbers numbers =
          RunPipeline(kernel, *layout, init,
                      harness::ApplyTunePoint(Base(seed), candidate.point), ledger)
              .numbers;
      ledger->Add("harness.autotune.frontier_ms", MsSince(start));
      if (numbers.speedup != candidate.simulated_speedup) {
        mismatch(candidate, "simulated speedup");
      }
    }
    ledger->Add("harness.autotune.kernels", 1);
    ledger->Add("harness.autotune.wins", tuned.best_index != tuned.default_index ? 1 : 0);
  }

  std::uint64_t seed_;
  std::vector<kernels::SequoiaKernel> kernels_;
};

/// native: the x16 Table-I kernels compiled and verified once in set-up,
/// then executed natively, sequential and parallel, in every point.
class NativeWorkload final : public Workload {
 public:
  NativeWorkload(std::uint64_t seed, bool smoke)
      : seed_(seed), sources_(TableOneKernels(smoke, 16)) {}

  void Setup(Ledger* ledger) override {
    kernels::ExperimentConfig experiment;
    experiment.cores = 4;
    harness::RunConfig config = kernels::ToRunConfig(experiment);
    config.seed = MixSeed(seed_, 0);
    ring_capacity_ = static_cast<std::size_t>(config.queue.capacity);
    for (const kernels::SequoiaKernel& source : sources_) {
      Compiled compiled;
      {
        Scope scope(ledger, "frontend.parse");
        compiled.kernel = std::make_unique<ir::Kernel>(frontend::ParseKernel(source.source));
      }
      {
        Scope scope(ledger, "ir.layout");
        compiled.layout = std::make_unique<ir::DataLayout>(*compiled.kernel, 64);
        ir::CheckValid(*compiled.kernel);
      }
      PipelineOutput out = RunPipeline(*compiled.kernel, *compiled.layout,
                                       kernels::SequoiaInit(source), config, ledger);
      compiled.simulated_speedup = out.numbers.speedup;
      compiled.params_raw = native::RawParams(*compiled.kernel, out.prepared.params);
      compiled.image = std::move(out.prepared.image);
      compiled.golden = std::move(out.prepared.golden);
      compiled.program.emplace(std::move(*out.compiled));
      kernels_.push_back(std::move(compiled));
    }
    for (std::size_t k = 0; k < kernels_.size(); ++k) {
      RequireOk(RunPoint(0, k, ledger));
    }
  }
  std::size_t RoundSize() const override { return kernels_.size(); }
  int Rounds() const override { return 127; }
  PointResult RunPoint(int /*round*/, std::size_t index, Ledger* ledger) override {
    const Compiled& k = kernels_[index];
    PointResult result;
    result.speedup = k.simulated_speedup;
    Scope point(ledger, std::string(kPointSpan));
    std::vector<std::uint64_t> memory = k.image;
    native::NativeRunStats seq;
    {
      Scope scope(ledger, "native.seq");
      seq = native::ExecuteNative({k.kernel.get(), k.layout.get(), nullptr},
                                  k.params_raw, memory);
    }
    Verify(memory, k.golden, "native sequential execution", ledger);
    memory = k.image;
    native::NativeRunStats par;
    {
      Scope scope(ledger, "native.par");
      par = native::ExecuteNative(k.program->lowered(), k.params_raw, memory,
                                  ring_capacity_);
    }
    Verify(memory, k.golden, "native parallel execution", ledger);
    Count(ledger, "native.par.queue_transfers", static_cast<double>(par.queue_transfers));
    Count(ledger, "native.rings_used", par.rings_used);
    result.native_seq_ms = seq.wall_seconds * 1e3;
    result.native_par_ms = par.wall_seconds * 1e3;
    result.check = {static_cast<double>(par.queue_transfers),
                    static_cast<double>(par.rings_used)};
    return result;
  }

 private:
  struct Compiled {
    std::unique_ptr<ir::Kernel> kernel;
    std::unique_ptr<ir::DataLayout> layout;  // the compiled plan points here
    std::optional<compiler::CompiledParallel> program;
    double simulated_speedup = 0.0;
    std::vector<std::uint64_t> params_raw;
    std::vector<std::uint64_t> image;
    std::vector<std::uint64_t> golden;
  };

  static void Verify(const std::vector<std::uint64_t>& memory,
                     const std::vector<std::uint64_t>& golden, const char* what,
                     Ledger* ledger) {
    Scope scope(ledger, "harness.verify");
    CompareWords(golden, [&](std::size_t addr) { return memory[addr]; }, what);
  }

  std::uint64_t seed_;
  std::vector<kernels::SequoiaKernel> sources_;
  std::vector<Compiled> kernels_;
  std::size_t ring_capacity_ = 0;
};

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"fig12", "sim_large", "wide_compile",
                                                 "autotune", "native"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       bool smoke) {
  if (name == "fig12") {
    return std::make_unique<SweepWorkload>(seed, smoke, 1, /*rounds=*/115);
  }
  if (name == "sim_large") {
    return std::make_unique<SweepWorkload>(seed, smoke, 16, /*rounds=*/13);
  }
  if (name == "wide_compile") {
    return std::make_unique<WideCompileWorkload>(seed);
  }
  if (name == "autotune") {
    return std::make_unique<AutotuneWorkload>(seed, smoke);
  }
  if (name == "native") {
    return std::make_unique<NativeWorkload>(seed, smoke);
  }
  throw Error("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// The run loop and the metrics
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

struct RunLog {
  std::vector<double> setup_s;
  std::vector<double> point_ms;  // successful untraced points
  double untraced_s = 0.0;       // wall time of the untraced rounds
  std::vector<double> speedups;  // successful untraced points
  std::map<std::size_t, std::vector<double>> native_seq_ms;  // per kernel
  std::map<std::size_t, std::vector<double>> native_par_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
};

PointResult RunGuarded(Workload& workload, int round, std::size_t index,
                       Ledger* ledger) {
  try {
    return workload.RunPoint(round, index, ledger);
  } catch (const std::exception& e) {
    PointResult failed;
    failed.ok = false;
    failed.error = e.what();
    return failed;
  }
}

void Fail(RunLog& log, const std::string& error) {
  ++log.failed;
  if (log.errors.size() < 5) {
    log.errors.push_back(error);
  }
}

/// The process's own peak resident set (VmHWM).  getrusage's ru_maxrss
/// would also count the parent's image inherited across exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw Error("no VmHWM in /proc/self/status");
}

std::vector<Metric> EndToEndMetrics(const RunLog& log) {
  std::vector<Metric> metrics;
  const std::size_t n = log.point_ms.size();
  metrics.push_back({"setup_s", Quantile(log.setup_s, 0.5), "s", log.setup_s.size()});
  metrics.push_back({"point_ms_p50", Quantile(log.point_ms, 0.5), "ms", n});
  metrics.push_back({"point_ms_p90", Quantile(log.point_ms, 0.9), "ms", n});
  metrics.push_back({"points_per_s", Ratio(static_cast<double>(n), log.untraced_s), "1/s", n});
  metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});
  metrics.push_back({"speedup_geomean", GeoMean(log.speedups), "x", log.speedups.size()});
  return metrics;
}

std::vector<Metric> PerLayerMetrics(const RunLog& log, const Ledger& ledger) {
  const LedgerSummary summary = Summarize(ledger);
  const auto by_name = [&](const std::string& name) {
    const auto it = summary.by_name.find(name);
    return it != summary.by_name.end() ? it->second : NameStat{};
  };
  const std::size_t points = static_cast<std::size_t>(summary.points);
  std::vector<Metric> metrics;
  const auto mean_ms = [&](const std::string& name) {
    const NameStat stat = by_name(name);
    metrics.push_back({name + ".ms", stat.MeanMs(), "ms", static_cast<std::size_t>(stat.calls)});
  };
  mean_ms("frontend.parse");
  mean_ms("ir.interp");
  mean_ms("analysis.profile");
  mean_ms("compiler.seq");
  mean_ms("compiler.par");
  for (const char* pass : {"split", "fold", "forward", "dce", "fiberize", "graph", "merge",
                           "select", "lower"}) {
    mean_ms(std::string("compiler.pass.") + pass);
  }
  mean_ms("sim.seq");
  mean_ms("sim.par");
  mean_ms("harness.prepare");
  mean_ms("harness.verify");
  metrics.push_back({"harness.glue.ms", Ratio(summary.glue_ms, static_cast<double>(points)),
                     "ms", points});

  const auto layer_ms = [&](const std::string& layer) {
    const auto it = summary.layer_self_ms.find(layer);
    return it != summary.layer_self_ms.end() ? it->second : 0.0;
  };
  for (const char* layer : {"frontend", "ir", "analysis", "compiler", "sim", "model",
                            "native"}) {
    metrics.push_back({std::string(layer) + ".share",
                       100.0 * Ratio(layer_ms(layer), summary.point_ms), "%", points});
  }
  metrics.push_back({"harness.share",
                     100.0 * Ratio(layer_ms("harness") + summary.glue_ms, summary.point_ms),
                     "%", points});
  metrics.push_back({"trace.coverage_pct",
                     100.0 * (1.0 - Ratio(summary.glue_ms, summary.point_ms)), "%", points});
  // Point time is the root span's duration; the autotuner's replay runs
  // after it and is not part of it.
  metrics.push_back({"trace.overhead_pct",
                     100.0 * (Ratio(Quantile(summary.point_ms_samples, 0.5),
                                    Quantile(log.point_ms, 0.5)) -
                              1.0),
                     "%", points});

  const auto per_call = [&](const std::string& count, const std::string& span) {
    return Ratio(ledger.Total(count), static_cast<double>(by_name(span).calls));
  };
  const auto calls_per_point = [&](const std::string& span) {
    std::int64_t calls = 0;
    for (const Span& s : ledger.spans()) {
      calls += s.point >= 0 && s.name == span ? 1 : 0;
    }
    return Ratio(static_cast<double>(calls), static_cast<double>(points));
  };
  metrics.push_back({"compiler.fibers", per_call("compiler.fibers", "compiler.par"), "count",
                     static_cast<std::size_t>(by_name("compiler.par").calls)});
  metrics.push_back({"compiler.select.built_ratio",
                     Ratio(ledger.Total("compiler.select.built"),
                           ledger.Total("compiler.select.candidates")),
                     "ratio", static_cast<std::size_t>(by_name("compiler.par").calls)});
  for (const char* machine : {"sim.seq", "sim.par"}) {
    const std::string m = machine;
    metrics.push_back({m + ".instructions", ledger.InPoints(m + ".instructions"), "count", 1});
    metrics.push_back({m + ".cycles", ledger.InPoints(m + ".cycles"), "count", 1});
    metrics.push_back({m + ".minstr_per_s",
                       Ratio(ledger.Total(m + ".instructions"), by_name(m).total_ms) / 1e3,
                       "Minstr/s", static_cast<std::size_t>(by_name(m).calls)});
  }
  metrics.push_back({"sim.par.queue_transfers", ledger.InPoints("sim.par.queue_transfers"),
                     "count", 1});
  metrics.push_back({"sim.threaded.instr_share",
                     100.0 * Ratio(ledger.Total("sim.threaded.instructions"),
                                   ledger.Total("sim.seq.instructions") +
                                       ledger.Total("sim.par.instructions")),
                     "%", 1});
  metrics.push_back({"ir.interp.stmts", per_call("ir.interp.stmts", "ir.interp"), "count",
                     static_cast<std::size_t>(by_name("ir.interp").calls)});
  metrics.push_back({"ir.interp.mstmts_per_s",
                     Ratio(ledger.Total("ir.interp.stmts"), by_name("ir.interp").total_ms) / 1e3,
                     "Mstmts/s", static_cast<std::size_t>(by_name("ir.interp").calls)});
  metrics.push_back({"analysis.profile.calls", calls_per_point("analysis.profile"), "count",
                     points});
  metrics.push_back({"model.predict.calls", calls_per_point("model.predict"), "count", points});
  metrics.push_back({"harness.autotune.sim_share",
                     100.0 * Ratio(ledger.Total("harness.autotune.frontier_ms"),
                                   summary.point_ms),
                     "%", points});
  metrics.push_back({"harness.autotune.win_ratio",
                     Ratio(ledger.InPoints("harness.autotune.wins"),
                           ledger.InPoints("harness.autotune.kernels")),
                     "ratio", static_cast<std::size_t>(ledger.InPoints("harness.autotune.kernels"))});
  metrics.push_back({"native.par.queue_transfers", ledger.InPoints("native.par.queue_transfers"),
                     "count", 1});
  metrics.push_back({"native.par.mtransfers_per_s",
                     Ratio(ledger.Total("native.par.queue_transfers"),
                           by_name("native.par").total_ms) / 1e3,
                     "M/s", static_cast<std::size_t>(by_name("native.par").calls)});
  metrics.push_back({"native.rings_used", per_call("native.rings_used", "native.par"), "count",
                     static_cast<std::size_t>(by_name("native.par").calls)});
  // Measured host speedup: per kernel, median sequential over median
  // parallel wall time across the untraced rounds.
  std::vector<double> native_speedups;
  for (const auto& [kernel, seq] : log.native_seq_ms) {
    native_speedups.push_back(Quantile(seq, 0.5) / Quantile(log.native_par_ms.at(kernel), 0.5));
  }
  metrics.push_back({"native.speedup_geomean", GeoMean(native_speedups), "x",
                     native_speedups.size()});
  return metrics;
}

/// Per-layer self time, share and span count of the traced points.
void PrintLayerTable(const Ledger& ledger) {
  const LedgerSummary summary = Summarize(ledger);
  std::map<std::string, std::int64_t> calls;
  for (const Span& span : ledger.spans()) {
    if (span.point >= 0 && span.name != kPointSpan && span.name != kReplaySpan) {
      ++calls[std::string(LayerOf(span.name))];
    }
  }
  std::printf("# layer ledger: %d traced points, %.3f ms per point\n", summary.points,
              Ratio(summary.point_ms, summary.points));
  std::printf("# %-10s %14s %8s %10s\n", "layer", "self_ms/point", "share", "spans");
  for (const auto& [layer, ms] : summary.layer_self_ms) {
    std::printf("# %-10s %14.4f %7.2f%% %10lld\n", layer.c_str(), Ratio(ms, summary.points),
                100.0 * Ratio(ms, summary.point_ms), static_cast<long long>(calls[layer]));
  }
  std::printf("# %-10s %14.4f %7.2f%%\n", "(glue)", Ratio(summary.glue_ms, summary.points),
              100.0 * Ratio(summary.glue_ms, summary.point_ms));
}

std::string ResultJson(bool correct, const RunLog& log, const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(log.attempted) +
                    ", \"failed\": " + std::to_string(log.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int Run(const Options& options) {
  RunLog log;
  Ledger ledger;
  Ledger* traced = options.trace ? &ledger : nullptr;

  // Set-up, once when traced.  Untraced, at least three times and until
  // the set-ups add up to a second, so a short set-up is sampled often
  // enough for its median to hold still; setup_s is that median.
  std::unique_ptr<Workload> workload;
  double setup_total_s = 0.0;
  do {
    workload.reset();
    const auto start = Clock::now();
    workload = MakeWorkload(options.workload, options.seed, options.smoke);
    workload->Setup(traced);
    log.setup_s.push_back(MsSince(start) / 1e3);
    setup_total_s += log.setup_s.back();
  } while (!options.trace && !options.smoke &&
           (log.setup_s.size() < 3 || (setup_total_s < 1.0 && log.setup_s.size() < 25)));

  // The traced run reports no end-to-end metrics, so it needs no round
  // beyond round 0, whose counts the per-layer metrics report.
  const int rounds = options.smoke || options.trace ? 1 : workload->Rounds();
  int next_point = 0;
  for (int round = 0; round < rounds; ++round) {
    const auto round_start = Clock::now();
    workload->BeginRound(round);
    std::vector<PointResult> untraced;
    for (std::size_t i = 0; i < workload->RoundSize(); ++i) {
      const auto start = Clock::now();
      PointResult result = RunGuarded(*workload, round, i, nullptr);
      const double ms = MsSince(start);
      ++log.attempted;
      if (!result.ok) {
        Fail(log, result.error);
      } else {
        log.point_ms.push_back(ms);
        log.speedups.push_back(result.speedup);
        if (result.native_par_ms > 0.0) {
          log.native_seq_ms[i].push_back(result.native_seq_ms);
          log.native_par_ms[i].push_back(result.native_par_ms);
        }
      }
      untraced.push_back(std::move(result));
    }
    log.untraced_s += MsSince(round_start) / 1e3;
    if (traced == nullptr) {
      continue;
    }
    for (std::size_t i = 0; i < workload->RoundSize(); ++i) {
      ledger.SetPoint(next_point++);
      const PointResult result = RunGuarded(*workload, round, i, traced);
      ++log.attempted;
      if (!result.ok) {
        Fail(log, result.error);
      } else if (result.check != untraced[i].check) {
        Fail(log, "traced replay of point " + std::to_string(i) + " in round " +
                      std::to_string(round) + " disagrees with the untraced run");
      }
    }
    ledger.SetPoint(-1);
  }

  const bool correct = log.failed == 0 && !log.point_ms.empty();
  for (const std::string& error : log.errors) {
    std::fprintf(stderr, "fgpar_bench: %s: %s\n", options.workload.c_str(), error.c_str());
  }

  std::vector<Metric> e2e = EndToEndMetrics(log);
  std::vector<Metric> layers;
  if (traced != nullptr) {
    PrintLayerTable(ledger);
    layers = PerLayerMetrics(log, ledger);
  }
  std::printf("# workload %s seed %llu: %lld points attempted, %lld failed\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              static_cast<long long>(log.attempted), static_cast<long long>(log.failed));
  std::printf("# set-up seconds:");
  for (const double seconds : log.setup_s) {
    std::printf(" %.4f", seconds);
  }
  std::printf("\n");
  for (const std::vector<Metric>* group : {&e2e, &layers}) {
    for (const Metric& m : *group) {
      std::printf("%s %s %s n=%zu\n", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str(),
                  m.samples);
    }
  }
  if (traced != nullptr) {
    const std::string path = "trace_" + options.workload + ".json";
    std::ofstream out(path);
    out << ledger.ToJson(options.workload, options.seed);
    FGPAR_CHECK_MSG(out.good(), "cannot write " + path);
  }
  std::printf("%s\n", ResultJson(correct, log, traced != nullptr ? layers : e2e).c_str());
  return 0;
}

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "fgpar_bench: %s\n"
               "usage: fgpar_bench --workload <name> --seed <n> [--trace <0|1>] [--smoke]\n"
               "workloads:",
               error.c_str());
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      Usage("bad number for " + flag + ": " + value);
    }
  }
  if (std::find(WorkloadNames().begin(), WorkloadNames().end(), options.workload) ==
      WorkloadNames().end()) {
    Usage("unknown or missing --workload '" + options.workload + "'");
  }
  return options;
}

}  // namespace
}  // namespace fgpar::e2e

int main(int argc, char** argv) {
  const fgpar::e2e::Options options = fgpar::e2e::ParseArgs(argc, argv);
  try {
    return fgpar::e2e::Run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fgpar_bench: %s\n", e.what());
    return 1;
  }
}
