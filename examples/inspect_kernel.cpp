// inspect_kernel: deep-dive into how the compiler parallelizes one kernel.
//
//   ./inspect_kernel [kernel-id] [cores] [--speculate] [--disasm]
//
// Prints the rewritten (fiberized) kernel, the per-core partition, the
// communication plan, and — after simulating — per-core cycle/stall
// breakdowns.  Defaults to lammps-1 on 4 cores.  Everything shown is the
// program KernelRunner measures (a profile-fed compile on the prepared
// workload), run on the measured machine; the tool exits 1 if that
// machine's core-0 halt cycle or instruction total differs from the
// KernelRun's.
#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/index.hpp"
#include "analysis/profile.hpp"
#include "compiler/compile.hpp"
#include "harness/runner.hpp"
#include "isa/disasm.hpp"
#include "kernels/experiments.hpp"
#include "kernels/sequoia.hpp"
#include "sim/machine.hpp"
#include "ir/printer.hpp"
#include "support/str.hpp"

int main(int argc, char** argv) {
  using namespace fgpar;

  std::string id = "lammps-1";
  int cores = 4;
  bool speculate = false;
  bool disasm = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--speculate") == 0) {
      speculate = true;
    } else if (std::strcmp(argv[i], "--disasm") == 0) {
      disasm = true;
    } else if (argv[i][0] >= '0' && argv[i][0] <= '9') {
      cores = std::atoi(argv[i]);
    } else {
      id = argv[i];
    }
  }

  const kernels::SequoiaKernel& spec = kernels::SequoiaKernelById(id);
  std::printf("=== %s (%s) — %s ===\n\n", spec.id.c_str(),
              spec.application.c_str(), spec.location.c_str());

  kernels::ExperimentConfig experiment;
  experiment.cores = cores;
  experiment.speculation = speculate;
  const harness::RunConfig config = kernels::ToRunConfig(experiment);
  const harness::KernelRunner runner(kernels::ParseSequoia(spec),
                                     kernels::SequoiaInit(spec));
  const ir::Kernel& kernel = runner.kernel();
  const ir::DataLayout& layout = runner.layout();

  // The program the runner measures: the compiler fed the original
  // kernel's profile on the run's workload.
  const harness::PreparedWorkload workload(kernel, layout,
                                           kernels::SequoiaInit(spec), config.seed);
  const analysis::ProfileData profile = analysis::ProfileData::Collect(
      kernel, layout, workload.params, workload.image, config.cache);
  compiler::CompileOptions options = config.compile;
  options.assumed_queue_capacity = config.queue.capacity;
  const compiler::CompiledParallel compiled =
      compiler::CompileParallel(kernel, layout, options, &profile);

  std::printf("--- rewritten kernel (after split/speculation/forwarding/"
              "fiberize) ---\n%s\n",
              ir::PrintKernel(compiled.partition.kernel).c_str());

  const analysis::KernelIndex index(compiled.partition.kernel);
  std::printf("--- partitions (%d cores used) ---\n", compiled.cores_used);
  for (std::size_t c = 0; c < compiled.partition.partitions.size(); ++c) {
    std::printf("core %zu (%d compute ops):\n", c,
                compiled.partition.compute_ops_per_core[c]);
    for (ir::StmtId stmt_id : compiled.partition.partitions[c]) {
      const analysis::StmtEntry& entry = index.ByStmtId(stmt_id);
      std::string text = ir::PrintStmts(compiled.partition.kernel,
                                        {*entry.stmt}, 0);
      if (!text.empty() && text.back() == '\n') {
        text.pop_back();
      }
      std::printf("  s%-3d %s\n", stmt_id, text.c_str());
    }
  }

  std::printf("\n--- communication plan (%d loop transfers) ---\n",
              compiled.comm.com_ops());
  for (const compiler::Transfer& t : compiled.comm.transfers) {
    std::printf("  %s: core %d -> core %d (producer s%d, path depth %zu)\n",
                compiled.partition.kernel.temp(t.temp).name.c_str(), t.src_core,
                t.dst_core, t.producer_stmt, t.path.size());
  }
  for (const compiler::LiveOut& lo : compiled.comm.live_outs) {
    std::printf("  live-out %s: core %d -> core 0\n",
                compiled.partition.kernel.temp(lo.temp).name.c_str(), lo.src_core);
  }

  if (disasm) {
    std::printf("\n--- disassembly ---\n%s\n",
                isa::DisassembleProgram(compiled.program).c_str());
  }

  // Run the measured machine and report per-core behaviour.
  harness::MeasuredMachine machine(
      harness::MeasuredMachineConfig(config, layout, compiled.cores_used),
      compiled.program, workload.image);
  const sim::RunResult result = machine.Run();
  std::printf("\n--- per-core pipeline behaviour ---\n");
  for (int c = 0; c < compiled.cores_used; ++c) {
    const sim::CoreStats& st = machine.core(c).stats();
    std::printf("core %d: %8llu instrs, raw stalls %8llu, deq-empty %8llu, "
                "enq-full %8llu\n",
                c, (unsigned long long)st.instructions,
                (unsigned long long)st.stall_raw,
                (unsigned long long)st.stall_queue_empty,
                (unsigned long long)st.stall_queue_full);
  }
  std::printf("machine: %s cycles, core 0 halted at %s (%s instructions)\n",
              FormatWithCommas(static_cast<long long>(result.cycles)).c_str(),
              FormatWithCommas(static_cast<long long>(result.core0_halt_cycle)).c_str(),
              FormatWithCommas(static_cast<long long>(result.instructions)).c_str());

  const harness::KernelRun run = runner.Run(config);
  std::printf("\n--- simulation ---\n");
  std::printf("sequential: %s cycles (%s instructions)\n",
              FormatWithCommas(static_cast<long long>(run.seq_cycles)).c_str(),
              FormatWithCommas(static_cast<long long>(run.seq_instructions)).c_str());
  std::printf("parallel:   %s cycles (%s instructions, %s queue transfers)\n",
              FormatWithCommas(static_cast<long long>(run.par_cycles)).c_str(),
              FormatWithCommas(static_cast<long long>(run.par_instructions)).c_str(),
              FormatWithCommas(static_cast<long long>(run.par_queue_transfers)).c_str());
  std::printf("speedup:    %.2f   (load balance %.2f, %d queues used, "
              "peak queue occupancy %d/20)\n",
              run.speedup, run.load_balance, run.queues_used,
              run.max_queue_occupancy);
  if (result.core0_halt_cycle != run.par_cycles ||
      result.instructions != run.par_instructions) {
    std::fprintf(stderr,
                 "inspect_kernel: the inspected machine is not the measured "
                 "one (core 0 halted at %llu, not %llu; %llu instructions, "
                 "not %llu)\n",
                 (unsigned long long)result.core0_halt_cycle,
                 (unsigned long long)run.par_cycles,
                 (unsigned long long)result.instructions,
                 (unsigned long long)run.par_instructions);
    return 1;
  }
  return 0;
}
