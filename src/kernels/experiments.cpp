#include "kernels/experiments.hpp"

#include "harness/sweep.hpp"
#include "support/error.hpp"

namespace fgpar::kernels {

harness::RunConfig ToRunConfig(const ExperimentConfig& config) {
  harness::RunConfig run;
  run.compile.num_cores = config.cores;
  run.compile.speculation = config.speculation;
  run.compile.throughput_heuristic = config.throughput_heuristic;
  run.queue.capacity = config.queue_capacity;
  run.queue.transfer_latency = config.transfer_latency;
  run.tune_by_simulation = config.tune_by_simulation;
  run.backend = config.backend;
  return run;
}

harness::KernelRun RunKernel(const SequoiaKernel& kernel,
                             const ExperimentConfig& config) {
  return RunKernel(kernel, ToRunConfig(config));
}

harness::KernelRun RunKernel(const SequoiaKernel& kernel,
                             const harness::RunConfig& config) {
  const ir::Kernel parsed = ParseSequoia(kernel);
  harness::KernelRunner runner(parsed, SequoiaInit(kernel));
  harness::KernelRun run = runner.Run(config);
  run.kernel_name = kernel.id;
  return run;
}

std::vector<harness::KernelRun> RunAllKernels(const ExperimentConfig& config) {
  const std::vector<SequoiaKernel>& kernels = SequoiaKernels();
  return harness::RunSweep(
      kernels.size(), harness::ResolveSweepThreads(config.sweep_threads),
      [&](std::size_t i) { return RunKernel(kernels[i], config); });
}

double ApplicationSpeedup(const SequoiaApplication& app,
                          const std::map<std::string, double>& kernel_speedups) {
  double covered = 0.0;
  double scaled = 0.0;
  for (const std::string& id : app.kernel_ids) {
    const double weight = SequoiaKernelById(id).pct_time / 100.0;
    const auto it = kernel_speedups.find(id);
    FGPAR_CHECK_MSG(it != kernel_speedups.end(), "missing speedup for " + id);
    FGPAR_CHECK_MSG(it->second > 0.0, "non-positive speedup for " + id);
    covered += weight;
    scaled += weight / it->second;
  }
  FGPAR_CHECK_MSG(covered <= 1.0, "kernel weights exceed 100% for " + app.name);
  return 1.0 / ((1.0 - covered) + scaled);
}

}  // namespace fgpar::kernels
