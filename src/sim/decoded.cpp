#include "sim/decoded.hpp"

namespace fgpar::sim {

namespace {

using isa::Opcode;

/// Fills `di`'s source-register lists: the registers `instr` reads before
/// it can issue.  Stores read their value register (`dst`); fused
/// multiply-add reads its accumulator (`dst`).  There is no default case,
/// so -Wswitch flags a new opcode missing here, and the test
/// CoreTiming.DecodedSourcesMatchOpcodeTable fails until the opcode has a
/// row in its table.
void DecodeSources(const isa::Instruction& instr, DecodedInstruction& di) {
  auto g = [&di](std::uint8_t r) { di.gpr_srcs[di.num_gpr_srcs++] = r; };
  auto f = [&di](std::uint8_t r) { di.fpr_srcs[di.num_fpr_srcs++] = r; };
  switch (instr.op) {
    case Opcode::kAddI: case Opcode::kSubI: case Opcode::kMulI: case Opcode::kDivI:
    case Opcode::kRemI: case Opcode::kAndI: case Opcode::kOrI: case Opcode::kXorI:
    case Opcode::kShlI: case Opcode::kShrI: case Opcode::kMinI: case Opcode::kMaxI:
    case Opcode::kCeqI: case Opcode::kCneI: case Opcode::kCltI: case Opcode::kCleI:
      g(instr.src1);
      g(instr.src2);
      break;
    case Opcode::kMovI:
      g(instr.src1);
      break;
    case Opcode::kLiI: case Opcode::kLiF: case Opcode::kJmp: case Opcode::kCall:
    case Opcode::kRet: case Opcode::kHalt: case Opcode::kNop:
      break;
    case Opcode::kAddF: case Opcode::kSubF: case Opcode::kMulF: case Opcode::kDivF:
    case Opcode::kMinF: case Opcode::kMaxF: case Opcode::kCeqF: case Opcode::kCltF:
    case Opcode::kCleF:
      f(instr.src1);
      f(instr.src2);
      break;
    case Opcode::kFmaF:
      f(instr.src1);
      f(instr.src2);
      f(instr.dst);  // accumulator is read-modify-write
      break;
    case Opcode::kNegF: case Opcode::kAbsF: case Opcode::kSqrtF: case Opcode::kMovF:
      f(instr.src1);
      break;
    case Opcode::kItoF:
      g(instr.src1);
      break;
    case Opcode::kFtoI:
      f(instr.src1);
      break;
    case Opcode::kLdI: case Opcode::kLdF:
      g(instr.src1);
      break;
    case Opcode::kLdIX: case Opcode::kLdFX:
      g(instr.src1);
      g(instr.src2);
      break;
    case Opcode::kStI:
      g(instr.src1);
      g(instr.dst);  // value register
      break;
    case Opcode::kStIX:
      g(instr.src1);
      g(instr.src2);
      g(instr.dst);
      break;
    case Opcode::kStF:
      g(instr.src1);
      f(instr.dst);
      break;
    case Opcode::kStFX:
      g(instr.src1);
      g(instr.src2);
      f(instr.dst);
      break;
    case Opcode::kBz: case Opcode::kBnz: case Opcode::kCallR:
      g(instr.src1);
      break;
    case Opcode::kEnqI:
      g(instr.src1);
      break;
    case Opcode::kEnqF:
      f(instr.src1);
      break;
    case Opcode::kDeqI: case Opcode::kDeqF:
      break;
  }
}

}  // namespace

DecodedProgram::DecodedProgram(const isa::Program& program,
                               const CoreTiming& timing)
    : taken_branch_busy_(1 +
                         static_cast<std::uint64_t>(timing.taken_branch_penalty)) {
  code_.reserve(program.size());
  for (const isa::Instruction& instr : program.code()) {
    DecodedInstruction di;
    di.op = instr.op;
    di.dst = instr.dst;
    di.src1 = instr.src1;
    di.src2 = instr.src2;
    di.queue = instr.queue;
    di.imm = instr.imm;
    di.fimm = instr.fimm;
    DecodeSources(instr, di);
    di.is_enqueue = isa::IsEnqueue(instr.op);
    di.is_dequeue = isa::IsDequeue(instr.op);
    di.is_fp_queue = isa::IsFpQueueOp(instr.op);
    di.result_latency = isa::IsLoad(instr.op) || isa::IsStore(instr.op)
                            ? 0
                            : ResultLatency(timing, instr.op);
    di.unpipelined_busy =
        IsUnpipelined(instr.op) ? ResultLatency(timing, instr.op) : 0;
    code_.push_back(di);
  }
}

}  // namespace fgpar::sim
