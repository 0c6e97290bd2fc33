// Direct-threaded trace executor and block translator.
//
// The executor is one function containing a label per TraceOpKind; each
// handler ends by jumping straight to the next slot's pre-resolved label
// address (GNU computed goto, which GCC and Clang support), so dispatch is
// a single indirect branch per simulated instruction.
//
// Per-op timing replicates Core::Step exactly, folded into locals:
//
//   t = max(now, next_issue)                  // issue-stage fast-forward
//   ready = max(scoreboard[sources])          // RAW wait
//   if (max(t, ready) >= limit) exit          // conservative boundary guard
//   if (ready > t) { stall_raw += ready - t; t = ready; }
//   ... execute at t; dst_ready = t + latency ...
//   next_issue = t + busy; now = t + 1
//
// The boundary guard is what keeps every edge case bit-identical: `limit`
// is max_cycles, and an op that *might* cross it is not executed in the
// trace at all — the trace exits with the pre-op machine state, which by
// construction is a state the interpreted fast loop could itself have
// reached, and the interpreter re-runs the op with the reference ordering
// of max_cycles checks and divide traps.  Divide ops reuse the same exit
// for their trap conditions, so the interpreter's FGPAR_CHECK raises the
// identical error from the identical state.

#include "sim/threaded.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "isa/opcode.hpp"
#include "sim/core.hpp"
#include "support/error.hpp"

namespace fgpar::sim {

using isa::Opcode;

ThreadedStats& ThreadedStats::operator+=(const ThreadedStats& o) {
  blocks_translated += o.blocks_translated;
  traces += o.traces;
  trace_enters += o.trace_enters;
  trace_exits += o.trace_exits;
  threaded_instructions += o.threaded_instructions;
  deopt_memory += o.deopt_memory;
  deopt_queue += o.deopt_queue;
  deopt_call_ret += o.deopt_call_ret;
  deopt_cap += o.deopt_cap;
  deopt_end += o.deopt_end;
  deopt_boundary += o.deopt_boundary;
  return *this;
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

#define FGPAR_T_DISPATCH() goto* op->handler

// Issue-stage + scoreboard prologue shared by every executing handler.
// READY is the max ready-cycle over the op's sources (resolved statically
// per handler, so no source-list loop survives into the trace).
#define FGPAR_T_ISSUE(READY)                            \
  t = t_now > nxt ? t_now : nxt;                        \
  {                                                     \
    const std::uint64_t ready_ = (READY);               \
    const std::uint64_t eff_ = ready_ > t ? ready_ : t; \
    if (eff_ >= limit) goto exit_boundary;              \
    if (ready_ > t) {                                   \
      stall += ready_ - t;                              \
      t = ready_;                                       \
    }                                                   \
  }

#define FGPAR_T_RETIRE(BUSY)                  \
  nxt = t + static_cast<std::uint64_t>(BUSY); \
  t_now = t + 1;                              \
  ++executed;                                 \
  ++op;                                       \
  FGPAR_T_DISPATCH()

#define FGPAR_T_SET_G(EXPR)    \
  gpr[op->dst] = (EXPR);       \
  gready[op->dst] = t + static_cast<std::uint64_t>(op->latency)

#define FGPAR_T_SET_F(EXPR)    \
  fpr[op->dst] = (EXPR);       \
  fready[op->dst] = t + static_cast<std::uint64_t>(op->latency)

// Source-ready expressions by operand shape.
#define FGPAR_T_R0 (std::uint64_t{0})
#define FGPAR_T_RG1 (gready[op->src1])
#define FGPAR_T_RG2 (std::max(gready[op->src1], gready[op->src2]))
#define FGPAR_T_RF1 (fready[op->src1])
#define FGPAR_T_RF2 (std::max(fready[op->src1], fready[op->src2]))
#define FGPAR_T_RF3 \
  (std::max(fready[op->dst], std::max(fready[op->src1], fready[op->src2])))

TraceRun ThreadedExec::Run(Core& core, ThreadedTrace& trace, std::uint64_t& now,
                           std::uint64_t limit, ThreadedStats& stats) {
  // One label address per TraceOpKind, in enum order.
  static const void* const kHandlers[kNumTraceOpKinds] = {
      &&t_AddI, &&t_SubI, &&t_MulI, &&t_DivI, &&t_RemI, &&t_AndI, &&t_OrI,
      &&t_XorI, &&t_ShlI, &&t_ShrI, &&t_MinI, &&t_MaxI, &&t_LiI,  &&t_MovI,
      &&t_CeqI, &&t_CneI, &&t_CltI, &&t_CleI, &&t_AddF, &&t_SubF, &&t_MulF,
      &&t_DivF, &&t_NegF, &&t_AbsF, &&t_SqrtF, &&t_MinF, &&t_MaxF, &&t_FmaF,
      &&t_LiF,  &&t_MovF, &&t_ItoF, &&t_FtoI, &&t_CeqF, &&t_CltF, &&t_CleF,
      &&t_Nop,  &&t_Jmp,  &&t_Bz,   &&t_Bnz,  &&t_Halt, &&t_Exit,
  };
  if (!trace.resolved) {
    for (TraceOp& o : trace.ops) {
      o.handler = kHandlers[static_cast<int>(o.kind)];
    }
    trace.resolved = true;
  }

  std::int64_t* const gpr = core.gpr_.data();
  double* const fpr = core.fpr_.data();
  std::uint64_t* const gready = core.gpr_ready_.data();
  std::uint64_t* const fready = core.fpr_ready_.data();
  const TraceOp* const base = trace.ops.data();
  const std::int64_t head_pc = trace.head_pc;
  const TraceOp* op = base;
  std::uint64_t nxt = core.next_issue_;
  std::uint64_t t_now = now;
  std::uint64_t t = 0;
  std::uint64_t stall = 0;
  std::uint64_t executed = 0;
  TraceRun result;

  FGPAR_T_DISPATCH();

  // ---- integer ALU (wrap semantics via uint64, like Core::Execute) ----
t_AddI:
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(static_cast<std::int64_t>(static_cast<std::uint64_t>(gpr[op->src1]) +
                                          static_cast<std::uint64_t>(gpr[op->src2])));
  FGPAR_T_RETIRE(1);
t_SubI:
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(static_cast<std::int64_t>(static_cast<std::uint64_t>(gpr[op->src1]) -
                                          static_cast<std::uint64_t>(gpr[op->src2])));
  FGPAR_T_RETIRE(1);
t_MulI:
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(static_cast<std::int64_t>(static_cast<std::uint64_t>(gpr[op->src1]) *
                                          static_cast<std::uint64_t>(gpr[op->src2])));
  FGPAR_T_RETIRE(1);
t_DivI:
  // Trap conditions deopt pre-op, before the issue prologue charges any
  // RAW wait: the interpreter re-executes, charges that wait itself and
  // raises the reference FGPAR_CHECK error from the identical machine
  // state.
  if (gpr[op->src2] == 0 ||
      (gpr[op->src1] == INT64_MIN && gpr[op->src2] == -1)) {
    goto exit_boundary;
  }
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(gpr[op->src1] / gpr[op->src2]);
  FGPAR_T_RETIRE(op->busy);
t_RemI:
  if (gpr[op->src2] == 0 ||
      (gpr[op->src1] == INT64_MIN && gpr[op->src2] == -1)) {
    goto exit_boundary;
  }
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(gpr[op->src1] % gpr[op->src2]);
  FGPAR_T_RETIRE(op->busy);
t_AndI:
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(gpr[op->src1] & gpr[op->src2]);
  FGPAR_T_RETIRE(1);
t_OrI:
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(gpr[op->src1] | gpr[op->src2]);
  FGPAR_T_RETIRE(1);
t_XorI:
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(gpr[op->src1] ^ gpr[op->src2]);
  FGPAR_T_RETIRE(1);
t_ShlI:
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(static_cast<std::int64_t>(
      static_cast<std::uint64_t>(gpr[op->src1]) << (gpr[op->src2] & 63)));
  FGPAR_T_RETIRE(1);
t_ShrI:
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(gpr[op->src1] >> (gpr[op->src2] & 63));
  FGPAR_T_RETIRE(1);
t_MinI:
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(std::min(gpr[op->src1], gpr[op->src2]));
  FGPAR_T_RETIRE(1);
t_MaxI:
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(std::max(gpr[op->src1], gpr[op->src2]));
  FGPAR_T_RETIRE(1);
t_LiI:
  FGPAR_T_ISSUE(FGPAR_T_R0);
  FGPAR_T_SET_G(op->imm);
  FGPAR_T_RETIRE(1);
t_MovI:
  FGPAR_T_ISSUE(FGPAR_T_RG1);
  FGPAR_T_SET_G(gpr[op->src1]);
  FGPAR_T_RETIRE(1);
t_CeqI:
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(gpr[op->src1] == gpr[op->src2] ? 1 : 0);
  FGPAR_T_RETIRE(1);
t_CneI:
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(gpr[op->src1] != gpr[op->src2] ? 1 : 0);
  FGPAR_T_RETIRE(1);
t_CltI:
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(gpr[op->src1] < gpr[op->src2] ? 1 : 0);
  FGPAR_T_RETIRE(1);
t_CleI:
  FGPAR_T_ISSUE(FGPAR_T_RG2);
  FGPAR_T_SET_G(gpr[op->src1] <= gpr[op->src2] ? 1 : 0);
  FGPAR_T_RETIRE(1);

  // ---- floating point ----
t_AddF:
  FGPAR_T_ISSUE(FGPAR_T_RF2);
  FGPAR_T_SET_F(fpr[op->src1] + fpr[op->src2]);
  FGPAR_T_RETIRE(1);
t_SubF:
  FGPAR_T_ISSUE(FGPAR_T_RF2);
  FGPAR_T_SET_F(fpr[op->src1] - fpr[op->src2]);
  FGPAR_T_RETIRE(1);
t_MulF:
  FGPAR_T_ISSUE(FGPAR_T_RF2);
  FGPAR_T_SET_F(fpr[op->src1] * fpr[op->src2]);
  FGPAR_T_RETIRE(1);
t_DivF:
  FGPAR_T_ISSUE(FGPAR_T_RF2);
  FGPAR_T_SET_F(fpr[op->src1] / fpr[op->src2]);
  FGPAR_T_RETIRE(op->busy);
t_NegF:
  FGPAR_T_ISSUE(FGPAR_T_RF1);
  FGPAR_T_SET_F(-fpr[op->src1]);
  FGPAR_T_RETIRE(1);
t_AbsF:
  FGPAR_T_ISSUE(FGPAR_T_RF1);
  FGPAR_T_SET_F(std::fabs(fpr[op->src1]));
  FGPAR_T_RETIRE(1);
t_SqrtF:
  FGPAR_T_ISSUE(FGPAR_T_RF1);
  FGPAR_T_SET_F(std::sqrt(fpr[op->src1]));
  FGPAR_T_RETIRE(op->busy);
t_MinF:
  FGPAR_T_ISSUE(FGPAR_T_RF2);
  FGPAR_T_SET_F(std::fmin(fpr[op->src1], fpr[op->src2]));
  FGPAR_T_RETIRE(1);
t_MaxF:
  FGPAR_T_ISSUE(FGPAR_T_RF2);
  FGPAR_T_SET_F(std::fmax(fpr[op->src1], fpr[op->src2]));
  FGPAR_T_RETIRE(1);
t_FmaF:
  FGPAR_T_ISSUE(FGPAR_T_RF3);  // accumulator is read-modify-write
  FGPAR_T_SET_F(fpr[op->src1] * fpr[op->src2] + fpr[op->dst]);
  FGPAR_T_RETIRE(1);
t_LiF:
  FGPAR_T_ISSUE(FGPAR_T_R0);
  FGPAR_T_SET_F(op->fimm);
  FGPAR_T_RETIRE(1);
t_MovF:
  FGPAR_T_ISSUE(FGPAR_T_RF1);
  FGPAR_T_SET_F(fpr[op->src1]);
  FGPAR_T_RETIRE(1);
t_ItoF:
  FGPAR_T_ISSUE(FGPAR_T_RG1);
  FGPAR_T_SET_F(static_cast<double>(gpr[op->src1]));
  FGPAR_T_RETIRE(1);
t_FtoI:
  FGPAR_T_ISSUE(FGPAR_T_RF1);
  FGPAR_T_SET_G(static_cast<std::int64_t>(fpr[op->src1]));
  FGPAR_T_RETIRE(1);
t_CeqF:
  FGPAR_T_ISSUE(FGPAR_T_RF2);
  FGPAR_T_SET_G(fpr[op->src1] == fpr[op->src2] ? 1 : 0);
  FGPAR_T_RETIRE(1);
t_CltF:
  FGPAR_T_ISSUE(FGPAR_T_RF2);
  FGPAR_T_SET_G(fpr[op->src1] < fpr[op->src2] ? 1 : 0);
  FGPAR_T_RETIRE(1);
t_CleF:
  FGPAR_T_ISSUE(FGPAR_T_RF2);
  FGPAR_T_SET_G(fpr[op->src1] <= fpr[op->src2] ? 1 : 0);
  FGPAR_T_RETIRE(1);

  // ---- control ----
t_Nop:
  FGPAR_T_ISSUE(FGPAR_T_R0);
  FGPAR_T_RETIRE(1);
t_Jmp:
  FGPAR_T_ISSUE(FGPAR_T_R0);
  goto branch_taken;
t_Bz:
  FGPAR_T_ISSUE(FGPAR_T_RG1);
  if (gpr[op->src1] == 0) {
    goto branch_taken;
  }
  FGPAR_T_RETIRE(1);  // not taken: superblock falls through in-trace
t_Bnz:
  FGPAR_T_ISSUE(FGPAR_T_RG1);
  if (gpr[op->src1] != 0) {
    goto branch_taken;
  }
  FGPAR_T_RETIRE(1);
t_Halt:
  FGPAR_T_ISSUE(FGPAR_T_R0);
  core.halted_ = true;
  nxt = t + 1;
  t_now = t + 1;
  ++executed;
  core.pc_ = op->pc + 1;
  result.exit = TraceRun::Exit::kHalt;
  goto writeback;

branch_taken:
  // op->busy carries the taken occupancy (1 + taken_branch_penalty).
  nxt = t + static_cast<std::uint64_t>(op->busy);
  t_now = t + 1;
  ++executed;
  if (op->imm == head_pc) {
    op = base;  // hot loop: stay in the trace
    FGPAR_T_DISPATCH();
  }
  core.pc_ = op->imm;
  result.exit = TraceRun::Exit::kBranch;
  goto writeback;

t_Exit:
  // Planned deopt: the next op is untranslatable.  pc moves to it; all
  // timing state is exactly the interpreted loop's boundary state.
  core.pc_ = op->pc;
  result.exit = TraceRun::Exit::kDeopt;
  result.deopt_cause = op->exit_cause;
  switch (op->exit_cause) {
    case TraceExitCause::kMemory: ++stats.deopt_memory; break;
    case TraceExitCause::kQueue: ++stats.deopt_queue; break;
    case TraceExitCause::kCallRet: ++stats.deopt_call_ret; break;
    case TraceExitCause::kCap: ++stats.deopt_cap; break;
    case TraceExitCause::kEnd: ++stats.deopt_end; break;
    case TraceExitCause::kBoundary: break;  // never baked into kExit ops
  }
  goto writeback;

exit_boundary:
  // Conservative guard: this op's issue could reach max_cycles, or a
  // divide would trap.  Exit with the pre-op state; the caller takes one
  // interpreted step, which re-derives the precise stop/throw/stall
  // ordering.
  core.pc_ = op->pc;
  result.exit = TraceRun::Exit::kDeopt;
  result.deopt_cause = TraceExitCause::kBoundary;
  ++stats.deopt_boundary;
  goto writeback;

writeback:
  core.next_issue_ = nxt;
  core.stats_.instructions += executed;
  core.stats_.stall_raw += stall;
  now = t_now;
  ++stats.trace_exits;
  stats.threaded_instructions += executed;
  result.executed = executed;
  return result;
}

#undef FGPAR_T_DISPATCH
#undef FGPAR_T_ISSUE
#undef FGPAR_T_RETIRE
#undef FGPAR_T_SET_G
#undef FGPAR_T_SET_F
#undef FGPAR_T_R0
#undef FGPAR_T_RG1
#undef FGPAR_T_RG2
#undef FGPAR_T_RF1
#undef FGPAR_T_RF2
#undef FGPAR_T_RF3

// ---------------------------------------------------------------------------
// Translator
// ---------------------------------------------------------------------------

namespace {

TraceOpKind KindOf(Opcode op) {
  switch (op) {
    case Opcode::kAddI: return TraceOpKind::kAddI;
    case Opcode::kSubI: return TraceOpKind::kSubI;
    case Opcode::kMulI: return TraceOpKind::kMulI;
    case Opcode::kDivI: return TraceOpKind::kDivI;
    case Opcode::kRemI: return TraceOpKind::kRemI;
    case Opcode::kAndI: return TraceOpKind::kAndI;
    case Opcode::kOrI: return TraceOpKind::kOrI;
    case Opcode::kXorI: return TraceOpKind::kXorI;
    case Opcode::kShlI: return TraceOpKind::kShlI;
    case Opcode::kShrI: return TraceOpKind::kShrI;
    case Opcode::kMinI: return TraceOpKind::kMinI;
    case Opcode::kMaxI: return TraceOpKind::kMaxI;
    case Opcode::kLiI: return TraceOpKind::kLiI;
    case Opcode::kMovI: return TraceOpKind::kMovI;
    case Opcode::kCeqI: return TraceOpKind::kCeqI;
    case Opcode::kCneI: return TraceOpKind::kCneI;
    case Opcode::kCltI: return TraceOpKind::kCltI;
    case Opcode::kCleI: return TraceOpKind::kCleI;
    case Opcode::kAddF: return TraceOpKind::kAddF;
    case Opcode::kSubF: return TraceOpKind::kSubF;
    case Opcode::kMulF: return TraceOpKind::kMulF;
    case Opcode::kDivF: return TraceOpKind::kDivF;
    case Opcode::kNegF: return TraceOpKind::kNegF;
    case Opcode::kAbsF: return TraceOpKind::kAbsF;
    case Opcode::kSqrtF: return TraceOpKind::kSqrtF;
    case Opcode::kMinF: return TraceOpKind::kMinF;
    case Opcode::kMaxF: return TraceOpKind::kMaxF;
    case Opcode::kFmaF: return TraceOpKind::kFmaF;
    case Opcode::kLiF: return TraceOpKind::kLiF;
    case Opcode::kMovF: return TraceOpKind::kMovF;
    case Opcode::kItoF: return TraceOpKind::kItoF;
    case Opcode::kFtoI: return TraceOpKind::kFtoI;
    case Opcode::kCeqF: return TraceOpKind::kCeqF;
    case Opcode::kCltF: return TraceOpKind::kCltF;
    case Opcode::kCleF: return TraceOpKind::kCleF;
    case Opcode::kNop: return TraceOpKind::kNop;
    case Opcode::kJmp: return TraceOpKind::kJmp;
    case Opcode::kBz: return TraceOpKind::kBz;
    case Opcode::kBnz: return TraceOpKind::kBnz;
    case Opcode::kHalt: return TraceOpKind::kHalt;
    default:
      FGPAR_UNREACHABLE("opcode is not threaded-traceable");
  }
}

TraceOp MakeOp(const DecodedInstruction& di, std::int64_t pc,
               std::uint64_t taken_branch_busy) {
  TraceOp op;
  op.kind = KindOf(di.op);
  op.dst = di.dst;
  op.src1 = di.src1;
  op.src2 = di.src2;
  op.latency = di.result_latency;
  op.pc = pc;
  op.imm = di.imm;
  op.fimm = di.fimm;
  if (isa::IsBranch(di.op)) {
    op.busy = static_cast<std::int64_t>(taken_branch_busy);
  } else if (di.unpipelined_busy > 0) {
    op.busy = di.unpipelined_busy;
  }
  return op;
}

TraceOp MakeExitOp(TraceExitCause cause, std::int64_t pc) {
  TraceOp op;
  op.kind = TraceOpKind::kExit;
  op.exit_cause = cause;
  op.pc = pc;
  return op;
}

}  // namespace

ThreadedCache::ThreadedCache(const DecodedProgram& decoded,
                             ThreadedStats* stats)
    : decoded_(decoded),
      stats_(stats),
      trace_at_(decoded.size(), kColdPc),
      heat_(decoded.size(), 0) {}

void ThreadedCache::NoteControlTransfer(std::int64_t target) {
  if (target < 0 || static_cast<std::size_t>(target) >= trace_at_.size()) {
    return;  // wild target: the interpreter raises the pc-range error
  }
  if (trace_at_[static_cast<std::size_t>(target)] != kColdPc) {
    return;  // already translated (or known untranslatable)
  }
  if (++heat_[static_cast<std::size_t>(target)] < kHotThreshold) {
    return;
  }
  TranslateBlockAt(target);
  if (trace_at_[static_cast<std::size_t>(target)] == kColdPc) {
    trace_at_[static_cast<std::size_t>(target)] = kNoTrace;
  }
}

void ThreadedCache::TranslateBlockAt(std::int64_t head) {
  ++stats_->blocks_translated;
  const std::int64_t size = static_cast<std::int64_t>(decoded_.size());
  const std::uint64_t taken_busy = decoded_.taken_branch_busy();

  std::vector<TraceOp> ops;
  std::int64_t seg_start = -1;
  int walked = 0;

  // Registers the pending segment (if long enough to pay for its enter/exit
  // cost) as a trace anchored at seg_start.  `terminated` marks segments
  // whose last op (jmp/halt) never falls through, so no kExit op is needed.
  auto flush = [&](TraceExitCause cause, std::int64_t exit_pc,
                   bool terminated) {
    if (seg_start >= 0 && ops.size() >= kMinTraceOps &&
        trace_at_[static_cast<std::size_t>(seg_start)] == kColdPc) {
      if (!terminated) {
        ops.push_back(MakeExitOp(cause, exit_pc));
      }
      auto trace = std::make_unique<ThreadedTrace>();
      trace->head_pc = seg_start;
      trace->ops = std::move(ops);
      trace_at_[static_cast<std::size_t>(seg_start)] =
          static_cast<std::int32_t>(traces_.size());
      traces_.push_back(std::move(trace));
      ++stats_->traces;
    }
    ops.clear();
    seg_start = -1;
  };

  // Superblock walk: extend through not-taken conditional branches, end
  // segments at untranslatable ops, end the block at an unconditional
  // control transfer.
  std::int64_t pc = head;
  while (pc < size && walked < kMaxBlockOps) {
    const DecodedInstruction& di = decoded_.at(pc);
    ++walked;
    if (!isa::IsThreadedTraceable(di.op)) {
      const TraceExitCause cause = isa::IsQueueOp(di.op)
                                       ? TraceExitCause::kQueue
                                   : isa::IsCallOrRet(di.op)
                                       ? TraceExitCause::kCallRet
                                       : TraceExitCause::kMemory;
      flush(cause, pc, /*terminated=*/false);
      if (cause == TraceExitCause::kCallRet) {
        break;  // continuation depends on the call stack
      }
      ++pc;  // straight-line memory op: the next segment starts after it
      continue;
    }
    if (seg_start < 0) {
      seg_start = pc;
    }
    ops.push_back(MakeOp(di, pc, taken_busy));
    if (di.op == Opcode::kJmp || di.op == Opcode::kHalt) {
      flush(TraceExitCause::kEnd, pc, /*terminated=*/true);
      break;
    }
    ++pc;
  }
  if (seg_start >= 0) {
    flush(walked >= kMaxBlockOps ? TraceExitCause::kCap : TraceExitCause::kEnd,
          pc, /*terminated=*/false);
  }
}

}  // namespace fgpar::sim
