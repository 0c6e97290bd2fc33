// Experiment drivers for the paper's evaluation section (Section V).
//
// Each bench binary (bench/) calls into these helpers to regenerate one
// table or figure.  Results are always produced through the verifying
// KernelRunner, so a number is only ever printed for a run whose memory
// matched the golden model bit-for-bit.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "kernels/sequoia.hpp"

namespace fgpar::kernels {

struct ExperimentConfig {
  int cores = 4;
  int queue_capacity = 20;      // Section V default
  int transfer_latency = 5;     // Section V default
  bool speculation = false;
  bool throughput_heuristic = false;
  /// Off by default: the paper's evaluation uses the static heuristics;
  /// dynamic-feedback version selection (Section III-I.1) is measured
  /// separately by bench/ablation_dynamic_feedback.
  bool tune_by_simulation = false;
  /// Host threads used by RunAllKernels to fan independent kernel
  /// pipelines across cores (results are deterministic regardless).
  /// <= 0 resolves via harness::ResolveSweepThreads: FGPAR_SWEEP_THREADS
  /// if set, else the host's hardware concurrency.
  int sweep_threads = 0;
  /// See harness::RunConfig::backend: kNative additionally executes the
  /// kernel on real host threads and records measured wall-clock numbers.
  compiler::BackendKind backend = compiler::BackendKind::kSim;
};

harness::RunConfig ToRunConfig(const ExperimentConfig& config);

/// Runs one kernel under `config`.
harness::KernelRun RunKernel(const SequoiaKernel& kernel,
                             const ExperimentConfig& config);

/// Runs one kernel under a fully specified RunConfig (seed, cycle budget,
/// failure hook, ...) — the entry point sweep supervision uses.
harness::KernelRun RunKernel(const SequoiaKernel& kernel,
                             const harness::RunConfig& config);

/// Runs all 18 kernels in Table I order.
std::vector<harness::KernelRun> RunAllKernels(const ExperimentConfig& config);

/// Whole-application speedup projection (Table II): combines per-kernel
/// speedups with Table I's runtime percentages via Amdahl's law —
/// speedup(app) = 1 / ((1 - sum(w_k)) + sum(w_k / s_k)).
double ApplicationSpeedup(const SequoiaApplication& app,
                          const std::map<std::string, double>& kernel_speedups);

}  // namespace fgpar::kernels
