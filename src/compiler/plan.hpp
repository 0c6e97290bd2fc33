// Per-core code plans.
//
// A CorePlan is the ordered, control-structured list of things one core
// does per loop iteration: its own statements, the replicated branch
// skeleton (Section III-E), and the enqueue/dequeue operations (Section
// III-D), placed so that for every directed core pair the enqueue order
// provably equals the dequeue order:
//
//  * enqueues go immediately after their producer statement;
//  * dequeues go in the block at the *producer's* control path — both
//    sides of a guarded transfer execute under the same (communicated)
//    condition value, so they pair on every control-flow path;
//  * within a block, dequeues from one source are placed in the producer's
//    emission order at the suffix-minimum of their first-use positions,
//    which keeps per-queue FIFO order while dequeuing as late as possible;
//    a replicated if earlier in the block that dequeues a later-produced
//    value from the same queue bounds a dequeue's position from above;
//  * block items keep original program order, so the cross-block order of
//    queue operations is the same on every core.
//
// check.cpp verifies the pairing property exhaustively over all branch
// assignments before code generation.
#pragma once

#include <vector>

#include "compiler/comm.hpp"

namespace fgpar::compiler {

struct PlanItem {
  enum class Kind { kStmt, kIf, kEnq, kDeq };
  Kind kind = Kind::kStmt;
  const ir::Stmt* stmt = nullptr;  // kStmt / kIf (original statement)
  int transfer = -1;               // kEnq / kDeq: index into CommPlan
  std::vector<PlanItem> then_items;
  std::vector<PlanItem> else_items;
};

struct CorePlan {
  int core = -1;
  std::vector<PlanItem> body;  // executed once per iteration
};

struct ProgramPlan {
  std::vector<CorePlan> cores;  // cores[0] = primary
  CommPlan comm;
};

ProgramPlan BuildProgramPlan(const analysis::KernelIndex& index,
                             const CoreAssignment& partition, CommPlan comm);

}  // namespace fgpar::compiler
