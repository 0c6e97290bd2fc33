#include "compiler/compile.hpp"

#include "compiler/pipeline.hpp"
#include "support/error.hpp"

namespace fgpar::compiler {

CompiledParallel CompileParallel(const ir::Kernel& kernel,
                                 const ir::DataLayout& layout,
                                 const CompileOptions& options,
                                 const analysis::ProfileData* profile,
                                 const CostModel* cost_model,
                                 const PipelineInstrumentation* instrumentation) {
  CompileState state(kernel, &layout, options);  // copies; passes rewrite in place
  state.profile = profile;
  state.cost_model = cost_model;
  BuildParallelPipeline(options).Run(state, instrumentation);

  // Keep the whole plan: its items point into the partition's kernel,
  // whose heap-allocated statement storage is stable under the moves
  // below, so backends can re-lower the plan later.
  CompiledParallel out{std::move(*state.program),
                       static_cast<int>(state.partition.partitions.size()),
                       std::move(state.partition),
                       std::move(*state.plan),
                       &layout,
                       std::move(state.candidate_reports)};
  return out;
}

isa::Program CompileSequential(const ir::Kernel& kernel,
                               const ir::DataLayout& layout,
                               const CompileOptions& options,
                               const PipelineInstrumentation* instrumentation) {
  CompileState state(kernel, &layout, options);  // copies; passes rewrite in place
  BuildSequentialPipeline(options).Run(state, instrumentation);
  return std::move(*state.program);
}

}  // namespace fgpar::compiler
