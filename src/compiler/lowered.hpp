// The target-independent lowered program form: the rewritten kernel, its
// memory layout, and (for the parallel pipeline) the per-core placement +
// communication plan.  The native executor (src/native/) runs it as host
// closures on std::thread workers connected by SPSC rings.
//
// The form is deliberately a non-owning view: it views a CompiledParallel
// (which owns the kernel inside its PartitionResult and owns the
// ProgramPlan, so the view stays valid for the compiled object's lifetime)
// or, for the sequential form, a caller-owned kernel/layout pair.
#pragma once

#include "compiler/plan.hpp"
#include "ir/kernel.hpp"
#include "ir/layout.hpp"

namespace fgpar::compiler {

struct LoweredProgram {
  const ir::Kernel* kernel = nullptr;
  const ir::DataLayout* layout = nullptr;

  /// Core placement + communication plan.  nullptr means the scalar kernel
  /// lowers as a single-core sequential program (the baseline pipeline).
  const ProgramPlan* plan = nullptr;

  bool sequential() const { return plan == nullptr; }

  /// Cores the parallel form targets (1 for sequential).
  int cores() const {
    return plan == nullptr ? 1 : static_cast<int>(plan->cores.size());
  }
};

}  // namespace fgpar::compiler
