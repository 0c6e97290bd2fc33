#include "isa/disasm.hpp"

#include <sstream>

#include "support/error.hpp"
#include "support/str.hpp"

namespace fgpar::isa {
namespace {

std::string Reg(char file, std::uint8_t r) {
  std::string name(1, file);
  name += std::to_string(r);
  return name;
}
std::string G(std::uint8_t r) { return Reg('r', r); }
std::string F(std::uint8_t r) { return Reg('f', r); }

enum class Shape {
  kGGG,     // dst, a, b (all gpr)
  kGG,      // dst, a
  kFFF,
  kFF,
  kGFF,     // gpr dst, fpr a, fpr b (fp compares)
  kFG,      // fpr dst, gpr src (itof)
  kGF,      // gpr dst, fpr src (ftoi)
  kImmI,    // dst, imm
  kImmF,    // dst, fimm
  kLoadG,   // dst, [base + imm]
  kLoadGX,  // dst, [base + idx]
  kLoadF,
  kLoadFX,
  kStoreG,
  kStoreGX,
  kStoreF,
  kStoreFX,
  kJump,
  kBranch,
  kCallR,
  kBare,
  kQueueG,
  kQueueF,
};

Shape ShapeOf(Opcode op) {
  switch (op) {
    case Opcode::kAddI: case Opcode::kSubI: case Opcode::kMulI: case Opcode::kDivI:
    case Opcode::kRemI: case Opcode::kAndI: case Opcode::kOrI: case Opcode::kXorI:
    case Opcode::kShlI: case Opcode::kShrI: case Opcode::kMinI: case Opcode::kMaxI:
    case Opcode::kCeqI: case Opcode::kCneI: case Opcode::kCltI: case Opcode::kCleI:
      return Shape::kGGG;
    case Opcode::kMovI:
      return Shape::kGG;
    case Opcode::kAddF: case Opcode::kSubF: case Opcode::kMulF: case Opcode::kDivF:
    case Opcode::kMinF: case Opcode::kMaxF: case Opcode::kFmaF:
      return Shape::kFFF;
    case Opcode::kNegF: case Opcode::kAbsF: case Opcode::kSqrtF: case Opcode::kMovF:
      return Shape::kFF;
    case Opcode::kCeqF: case Opcode::kCltF: case Opcode::kCleF:
      return Shape::kGFF;
    case Opcode::kItoF:
      return Shape::kFG;
    case Opcode::kFtoI:
      return Shape::kGF;
    case Opcode::kLiI:
      return Shape::kImmI;
    case Opcode::kLiF:
      return Shape::kImmF;
    case Opcode::kLdI:
      return Shape::kLoadG;
    case Opcode::kLdIX:
      return Shape::kLoadGX;
    case Opcode::kLdF:
      return Shape::kLoadF;
    case Opcode::kLdFX:
      return Shape::kLoadFX;
    case Opcode::kStI:
      return Shape::kStoreG;
    case Opcode::kStIX:
      return Shape::kStoreGX;
    case Opcode::kStF:
      return Shape::kStoreF;
    case Opcode::kStFX:
      return Shape::kStoreFX;
    case Opcode::kJmp: case Opcode::kCall:
      return Shape::kJump;
    case Opcode::kBz: case Opcode::kBnz:
      return Shape::kBranch;
    case Opcode::kCallR:
      return Shape::kCallR;
    case Opcode::kRet: case Opcode::kHalt: case Opcode::kNop:
      return Shape::kBare;
    case Opcode::kEnqI: case Opcode::kDeqI:
      return Shape::kQueueG;
    case Opcode::kEnqF: case Opcode::kDeqF:
      return Shape::kQueueF;
  }
  FGPAR_UNREACHABLE("bad opcode");
}

}  // namespace

std::string Disassemble(const Instruction& i) {
  std::ostringstream os;
  os << OpcodeName(i.op) << ' ';
  switch (ShapeOf(i.op)) {
    case Shape::kGGG: os << G(i.dst) << ", " << G(i.src1) << ", " << G(i.src2); break;
    case Shape::kGG: os << G(i.dst) << ", " << G(i.src1); break;
    case Shape::kFFF: os << F(i.dst) << ", " << F(i.src1) << ", " << F(i.src2); break;
    case Shape::kFF: os << F(i.dst) << ", " << F(i.src1); break;
    case Shape::kGFF: os << G(i.dst) << ", " << F(i.src1) << ", " << F(i.src2); break;
    case Shape::kFG: os << F(i.dst) << ", " << G(i.src1); break;
    case Shape::kGF: os << G(i.dst) << ", " << F(i.src1); break;
    case Shape::kImmI: os << G(i.dst) << ", " << i.imm; break;
    case Shape::kImmF: os << F(i.dst) << ", " << i.fimm; break;
    case Shape::kLoadG: os << G(i.dst) << ", [" << G(i.src1) << " + " << i.imm << ']'; break;
    case Shape::kLoadGX: os << G(i.dst) << ", [" << G(i.src1) << " + " << G(i.src2) << ']'; break;
    case Shape::kLoadF: os << F(i.dst) << ", [" << G(i.src1) << " + " << i.imm << ']'; break;
    case Shape::kLoadFX: os << F(i.dst) << ", [" << G(i.src1) << " + " << G(i.src2) << ']'; break;
    case Shape::kStoreG: os << '[' << G(i.src1) << " + " << i.imm << "], " << G(i.dst); break;
    case Shape::kStoreGX: os << '[' << G(i.src1) << " + " << G(i.src2) << "], " << G(i.dst); break;
    case Shape::kStoreF: os << '[' << G(i.src1) << " + " << i.imm << "], " << F(i.dst); break;
    case Shape::kStoreFX: os << '[' << G(i.src1) << " + " << G(i.src2) << "], " << F(i.dst); break;
    case Shape::kJump: os << '@' << i.imm; break;
    case Shape::kBranch: os << G(i.src1) << ", @" << i.imm; break;
    case Shape::kCallR: os << G(i.src1); break;
    case Shape::kBare: break;
    case Shape::kQueueG:
      os << "q" << i.queue << (IsDequeue(i.op) ? (", " + G(i.dst)) : (", " + G(i.src1)));
      break;
    case Shape::kQueueF:
      os << "q" << i.queue << (IsDequeue(i.op) ? (", " + F(i.dst)) : (", " + F(i.src1)));
      break;
  }
  return os.str();
}

std::string DisassembleProgram(const Program& program) {
  // Invert the symbol table so labels print at their pc.
  std::multimap<std::int64_t, std::string> by_pc;
  for (const auto& [name, pc] : program.symbols()) {
    by_pc.emplace(pc, name);
  }
  std::ostringstream os;
  for (std::int64_t pc = 0; pc < static_cast<std::int64_t>(program.size()); ++pc) {
    auto [lo, hi] = by_pc.equal_range(pc);
    for (auto it = lo; it != hi; ++it) {
      os << it->second << ":\n";
    }
    os << PadLeft(std::to_string(pc), 5) << "  "
       << PadRight(Disassemble(program.at(pc)), 36);
    if (!program.CommentAt(pc).empty()) {
      os << " ; " << program.CommentAt(pc);
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace fgpar::isa
