// Top-level compiler entry points.
//
// Both entry points are thin configurations of the PassManager
// (pipeline.hpp): they build the appropriate pipeline, run it over a
// CompileState, and package the state's outputs.  Callers that want
// per-pass observability (IR dumps, statistics, --print-pipeline) pass a
// PipelineInstrumentation; the defaults still verify the IR after every
// IR-mutating pass.
#pragma once

#include "analysis/profile.hpp"
#include "compiler/lowered.hpp"
#include "compiler/options.hpp"
#include "compiler/partition.hpp"
#include "compiler/pass.hpp"
#include "compiler/plan.hpp"
#include "ir/layout.hpp"
#include "isa/program.hpp"

namespace fgpar::compiler {

struct CompiledParallel {
  isa::Program program;
  int cores_used = 0;  // partitions produced (<= options.num_cores)
  PartitionResult partition;

  /// The selected target-independent placement + communication plan.  Its
  /// PlanItems point into `partition`'s kernel, which moves with this
  /// struct, so backends may re-lower the plan for as long as the compiled
  /// object lives (the native backend does exactly that).  Moving a
  /// CompiledParallel is safe; copying would dangle the plan.
  ProgramPlan plan;

  /// The lowered view the plan represents (see compiler/lowered.hpp).
  LoweredProgram lowered() const {
    return {&partition.kernel, layout, &plan};
  }

  /// Layout the kernel was compiled against (caller-owned).
  const ir::DataLayout* layout = nullptr;

  /// The select stage's per-candidate records (enumeration order, built
  /// and rejected alike, each with its cost-model attribution) — the
  /// substance behind `fgparc --explain-select`.
  std::vector<CandidateReport> candidate_reports;

  /// Entry symbol for core 0; every other core starts at "driver".
  static constexpr const char* kPrimaryEntry = "main";
  static constexpr const char* kDriverEntry = "driver";
};

/// Full Section III pipeline: split -> (speculate) -> forward -> fiberize
/// -> code graph -> merge -> communication plan -> pairing check -> lower.
/// With a `cost_model` (cost_model.hpp), every candidate partitioning
/// (partition counts 2..num_cores, both merge shapes) is compiled and the
/// best-scoring one is kept; without one, the static makespan objective
/// chooses.
CompiledParallel CompileParallel(
    const ir::Kernel& kernel, const ir::DataLayout& layout,
    const CompileOptions& options,
    const analysis::ProfileData* profile = nullptr,
    const CostModel* cost_model = nullptr,
    const PipelineInstrumentation* instrumentation = nullptr);

/// Baseline: the same scalar pipeline (split + forwarding, no fiberize or
/// partitioning) compiled for a single core.
isa::Program CompileSequential(
    const ir::Kernel& kernel, const ir::DataLayout& layout,
    const CompileOptions& options,
    const PipelineInstrumentation* instrumentation = nullptr);

}  // namespace fgpar::compiler
