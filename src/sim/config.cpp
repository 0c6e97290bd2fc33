#include "sim/config.hpp"

#include "support/error.hpp"

namespace fgpar::sim {

using isa::Opcode;

RunTier ParseRunTier(std::string_view name) {
  if (name == "auto") return RunTier::kAuto;
  if (name == "slow") return RunTier::kSlow;
  throw Error("unknown run tier '" + std::string(name) +
              "' (expected auto or slow)");
}

int ResultLatency(const CoreTiming& t, Opcode op) {
  switch (op) {
    case Opcode::kAddI: case Opcode::kSubI: case Opcode::kAndI: case Opcode::kOrI:
    case Opcode::kXorI: case Opcode::kShlI: case Opcode::kShrI: case Opcode::kMinI:
    case Opcode::kMaxI: case Opcode::kLiI: case Opcode::kMovI: case Opcode::kCeqI:
    case Opcode::kCneI: case Opcode::kCltI: case Opcode::kCleI:
      return t.int_alu;
    case Opcode::kMulI:
      return t.int_mul;
    case Opcode::kDivI: case Opcode::kRemI:
      return t.int_div;
    case Opcode::kAddF: case Opcode::kSubF: case Opcode::kNegF: case Opcode::kAbsF:
    case Opcode::kMinF: case Opcode::kMaxF: case Opcode::kLiF: case Opcode::kMovF:
    case Opcode::kItoF: case Opcode::kFtoI: case Opcode::kCeqF: case Opcode::kCltF:
    case Opcode::kCleF:
      return t.fp_alu;
    case Opcode::kMulF:
      return t.fp_mul;
    case Opcode::kFmaF:
      return t.fp_fma;
    case Opcode::kDivF:
      return t.fp_div;
    case Opcode::kSqrtF:
      return t.fp_sqrt;
    case Opcode::kJmp: case Opcode::kBz: case Opcode::kBnz: case Opcode::kCall:
    case Opcode::kCallR: case Opcode::kRet: case Opcode::kHalt: case Opcode::kNop:
      return t.branch;
    case Opcode::kEnqI: case Opcode::kEnqF: case Opcode::kDeqI: case Opcode::kDeqF:
      return t.queue_op;
    case Opcode::kLdI: case Opcode::kLdIX: case Opcode::kLdF: case Opcode::kLdFX:
    case Opcode::kStI: case Opcode::kStIX: case Opcode::kStF: case Opcode::kStFX:
      FGPAR_UNREACHABLE("memory latency comes from the MemorySystem");
  }
  FGPAR_UNREACHABLE("bad opcode");
}

bool IsUnpipelined(Opcode op) {
  switch (op) {
    case Opcode::kDivI: case Opcode::kRemI: case Opcode::kDivF: case Opcode::kSqrtF:
      return true;
    default:
      return false;
  }
}

}  // namespace fgpar::sim
