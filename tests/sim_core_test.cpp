// Unit tests for single-core execution: functional semantics, the
// scoreboard timing model, and the decoder's source-register table.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "sim/machine.hpp"
#include "support/error.hpp"

namespace fgpar::sim {
namespace {

using isa::Assembler;
using isa::Fpr;
using isa::Gpr;

MachineConfig OneCore() {
  MachineConfig config;
  config.num_cores = 1;
  config.memory_words = 1 << 16;
  return config;
}

/// A machine built from `a`'s program, with core 0 started at pc 0 and run
/// to completion.  Built in place: a Machine can be neither copied nor
/// moved.
class ProgramRun : public Machine {
 public:
  ProgramRun(const MachineConfig& config, Assembler& a)
      : Machine(config, a.Finish()) {
    StartCoreAtPc(0, 0);
    result = Run();
  }
  RunResult result;
};

TEST(Core, IntegerArithmetic) {
  Assembler a;
  a.LiI(Gpr{1}, 21);
  a.LiI(Gpr{2}, -4);
  a.AddI(Gpr{3}, Gpr{1}, Gpr{2});
  a.SubI(Gpr{4}, Gpr{1}, Gpr{2});
  a.MulI(Gpr{5}, Gpr{1}, Gpr{2});
  a.DivI(Gpr{6}, Gpr{1}, Gpr{2});
  a.RemI(Gpr{7}, Gpr{1}, Gpr{2});
  a.MinI(Gpr{8}, Gpr{1}, Gpr{2});
  a.MaxI(Gpr{9}, Gpr{1}, Gpr{2});
  a.Halt();
  ProgramRun m(OneCore(), a);
  EXPECT_EQ(m.core(0).gpr(3), 17);
  EXPECT_EQ(m.core(0).gpr(4), 25);
  EXPECT_EQ(m.core(0).gpr(5), -84);
  EXPECT_EQ(m.core(0).gpr(6), -5);
  EXPECT_EQ(m.core(0).gpr(7), 1);
  EXPECT_EQ(m.core(0).gpr(8), -4);
  EXPECT_EQ(m.core(0).gpr(9), 21);
}

TEST(Core, BitwiseAndShifts) {
  Assembler a;
  a.LiI(Gpr{1}, 0b1100);
  a.LiI(Gpr{2}, 0b1010);
  a.AndI(Gpr{3}, Gpr{1}, Gpr{2});
  a.OrI(Gpr{4}, Gpr{1}, Gpr{2});
  a.XorI(Gpr{5}, Gpr{1}, Gpr{2});
  a.LiI(Gpr{6}, 2);
  a.ShlI(Gpr{7}, Gpr{1}, Gpr{6});
  a.LiI(Gpr{8}, -16);
  a.ShrI(Gpr{9}, Gpr{8}, Gpr{6});
  a.Halt();
  ProgramRun m(OneCore(), a);
  EXPECT_EQ(m.core(0).gpr(3), 0b1000);
  EXPECT_EQ(m.core(0).gpr(4), 0b1110);
  EXPECT_EQ(m.core(0).gpr(5), 0b0110);
  EXPECT_EQ(m.core(0).gpr(7), 0b110000);
  EXPECT_EQ(m.core(0).gpr(9), -4);  // arithmetic shift
}

TEST(Core, Comparisons) {
  Assembler a;
  a.LiI(Gpr{1}, 3);
  a.LiI(Gpr{2}, 5);
  a.CltI(Gpr{3}, Gpr{1}, Gpr{2});
  a.CltI(Gpr{4}, Gpr{2}, Gpr{1});
  a.CeqI(Gpr{5}, Gpr{1}, Gpr{1});
  a.CneI(Gpr{6}, Gpr{1}, Gpr{1});
  a.CleI(Gpr{7}, Gpr{1}, Gpr{1});
  a.Halt();
  ProgramRun m(OneCore(), a);
  EXPECT_EQ(m.core(0).gpr(3), 1);
  EXPECT_EQ(m.core(0).gpr(4), 0);
  EXPECT_EQ(m.core(0).gpr(5), 1);
  EXPECT_EQ(m.core(0).gpr(6), 0);
  EXPECT_EQ(m.core(0).gpr(7), 1);
}

TEST(Core, FloatingPointArithmetic) {
  Assembler a;
  a.LiF(Fpr{1}, 9.0);
  a.LiF(Fpr{2}, 2.0);
  a.AddF(Fpr{3}, Fpr{1}, Fpr{2});
  a.SubF(Fpr{4}, Fpr{1}, Fpr{2});
  a.MulF(Fpr{5}, Fpr{1}, Fpr{2});
  a.DivF(Fpr{6}, Fpr{1}, Fpr{2});
  a.SqrtF(Fpr{7}, Fpr{1});
  a.NegF(Fpr{8}, Fpr{1});
  a.AbsF(Fpr{9}, Fpr{8});
  a.LiF(Fpr{10}, 3.0);
  a.FmaF(Fpr{10}, Fpr{1}, Fpr{2});  // 3 + 9*2
  a.Halt();
  ProgramRun m(OneCore(), a);
  EXPECT_DOUBLE_EQ(m.core(0).fpr(3), 11.0);
  EXPECT_DOUBLE_EQ(m.core(0).fpr(4), 7.0);
  EXPECT_DOUBLE_EQ(m.core(0).fpr(5), 18.0);
  EXPECT_DOUBLE_EQ(m.core(0).fpr(6), 4.5);
  EXPECT_DOUBLE_EQ(m.core(0).fpr(7), 3.0);
  EXPECT_DOUBLE_EQ(m.core(0).fpr(8), -9.0);
  EXPECT_DOUBLE_EQ(m.core(0).fpr(9), 9.0);
  EXPECT_DOUBLE_EQ(m.core(0).fpr(10), 21.0);
}

TEST(Core, Conversions) {
  Assembler a;
  a.LiI(Gpr{1}, -7);
  a.ItoF(Fpr{1}, Gpr{1});
  a.LiF(Fpr{2}, 2.9);
  a.FtoI(Gpr{2}, Fpr{2});
  a.LiF(Fpr{3}, -2.9);
  a.FtoI(Gpr{3}, Fpr{3});
  a.Halt();
  ProgramRun m(OneCore(), a);
  EXPECT_DOUBLE_EQ(m.core(0).fpr(1), -7.0);
  EXPECT_EQ(m.core(0).gpr(2), 2);   // truncation toward zero
  EXPECT_EQ(m.core(0).gpr(3), -2);
}

TEST(Core, LoadsAndStores) {
  Assembler a;
  a.LiI(Gpr{1}, 100);  // base
  a.LiI(Gpr{2}, 42);
  a.StI(Gpr{2}, Gpr{1}, 3);     // mem[103] = 42
  a.LdI(Gpr{3}, Gpr{1}, 3);
  a.LiI(Gpr{4}, 5);             // index
  a.LiF(Fpr{1}, 2.5);
  a.StFX(Fpr{1}, Gpr{1}, Gpr{4});  // mem[105] = 2.5
  a.LdFX(Fpr{2}, Gpr{1}, Gpr{4});
  a.Halt();
  ProgramRun m(OneCore(), a);
  EXPECT_EQ(m.core(0).gpr(3), 42);
  EXPECT_DOUBLE_EQ(m.core(0).fpr(2), 2.5);
  EXPECT_EQ(m.memory().ReadI64(103), 42);
  EXPECT_DOUBLE_EQ(m.memory().ReadF64(105), 2.5);
}

TEST(Core, LoopWithBranches) {
  // sum = 0; for (i = 10; i != 0; --i) sum += i;  => 55
  Assembler a;
  a.LiI(Gpr{1}, 10);
  a.LiI(Gpr{2}, 0);
  a.LiI(Gpr{3}, 1);
  isa::Label top = a.NewLabel();
  a.Bind(top);
  a.AddI(Gpr{2}, Gpr{2}, Gpr{1});
  a.SubI(Gpr{1}, Gpr{1}, Gpr{3});
  a.Bnz(Gpr{1}, top);
  a.Halt();
  ProgramRun m(OneCore(), a);
  EXPECT_EQ(m.core(0).gpr(2), 55);
}

TEST(Core, CallAndReturn) {
  Assembler a;
  isa::Label fn = a.NewNamedLabel("fn");
  a.LiI(Gpr{1}, 1);
  a.Call(fn);
  a.Call(fn);
  a.Halt();
  a.Bind(fn);
  a.AddI(Gpr{1}, Gpr{1}, Gpr{1});
  a.Ret();
  ProgramRun m(OneCore(), a);
  EXPECT_EQ(m.core(0).gpr(1), 4);
}

TEST(Core, IndirectCallThroughRegister) {
  Assembler a;
  isa::Label fn = a.NewNamedLabel("fn");
  a.LiLabel(Gpr{5}, fn);
  a.CallR(Gpr{5});
  a.Halt();
  a.Bind(fn);
  a.LiI(Gpr{1}, 99);
  a.Ret();
  ProgramRun m(OneCore(), a);
  EXPECT_EQ(m.core(0).gpr(1), 99);
}

TEST(Core, DivideByZeroThrows) {
  Assembler a;
  a.LiI(Gpr{1}, 1);
  a.LiI(Gpr{2}, 0);
  a.DivI(Gpr{3}, Gpr{1}, Gpr{2});
  a.Halt();
  Machine m(OneCore(), a.Finish());
  m.StartCoreAtPc(0, 0);
  EXPECT_THROW(m.Run(), Error);
}

TEST(Core, ReturnWithEmptyStackThrows) {
  Assembler a;
  a.Ret();
  Machine m(OneCore(), a.Finish());
  m.StartCoreAtPc(0, 0);
  EXPECT_THROW(m.Run(), Error);
}

// ---- timing model ----

TEST(CoreTiming, DependentChainIsSlowerThanIndependentOps) {
  MachineConfig config = OneCore();
  // Dependent chain of fp adds: each must wait fp_alu cycles for the prior.
  Assembler dep;
  dep.LiF(Fpr{1}, 1.0);
  for (int i = 0; i < 16; ++i) {
    dep.AddF(Fpr{1}, Fpr{1}, Fpr{1});
  }
  dep.Halt();
  const RunResult dep_result = ProgramRun(config, dep).result;

  // Independent adds: pipelined, ~1 per cycle.
  Assembler indep;
  indep.LiF(Fpr{1}, 1.0);
  for (int i = 0; i < 16; ++i) {
    indep.AddF(Fpr{static_cast<std::uint8_t>(2 + i)}, Fpr{1}, Fpr{1});
  }
  indep.Halt();
  const RunResult indep_result = ProgramRun(config, indep).result;

  EXPECT_GT(dep_result.core0_halt_cycle, indep_result.core0_halt_cycle * 3);
}

TEST(CoreTiming, UnpipelinedDivideOccupiesIssueStage) {
  MachineConfig config = OneCore();
  Assembler a;
  a.LiF(Fpr{1}, 1.0);
  a.LiF(Fpr{2}, 3.0);
  // Two *independent* divides: if divide were pipelined they would overlap.
  a.DivF(Fpr{3}, Fpr{1}, Fpr{2});
  a.DivF(Fpr{4}, Fpr{2}, Fpr{1});
  a.Halt();
  const RunResult r = ProgramRun(config, a).result;
  EXPECT_GE(r.core0_halt_cycle,
            2 * static_cast<std::uint64_t>(config.timing.fp_div));
}

TEST(CoreTiming, CacheHitsMakeRepeatedLoadsFaster) {
  MachineConfig config = OneCore();
  Assembler a;
  a.LiI(Gpr{1}, 0);
  for (int i = 0; i < 8; ++i) {
    a.LdF(Fpr{2}, Gpr{1}, 0);
    a.AddF(Fpr{3}, Fpr{2}, Fpr{2});  // consume the load each time
  }
  a.Halt();
  ProgramRun m(config, a);
  const RunResult& r = m.result;
  // One cold miss + seven L1 hits is far below eight misses.
  EXPECT_LT(r.core0_halt_cycle,
            static_cast<std::uint64_t>(8 * config.cache.mem_latency));
  EXPECT_EQ(m.memory().misses(), 1u);
}

TEST(CoreTiming, StatsCountInstructionCategories) {
  Assembler a;
  a.LiI(Gpr{1}, 0);
  a.LdI(Gpr{2}, Gpr{1}, 0);
  a.StI(Gpr{2}, Gpr{1}, 1);
  a.Halt();
  ProgramRun m(OneCore(), a);
  EXPECT_EQ(m.core(0).stats().instructions, 4u);
  EXPECT_EQ(m.core(0).stats().loads, 1u);
  EXPECT_EQ(m.core(0).stats().stores, 1u);
}

TEST(CoreTiming, DecodedSourcesMatchOpcodeTable) {
  // Every opcode decoded with dst = 1, src1 = 2, src2 = 3.  The expected
  // registers each one waits on before it issues are written from the
  // operand comments in isa/opcode.hpp: stores read their value register
  // (dst) and fmaf reads its accumulator (dst).
  using isa::Opcode;
  struct Sources {
    std::vector<int> gpr;
    std::vector<int> fpr;
  };
  const std::map<Opcode, Sources> expected = {
      {Opcode::kAddI, {{2, 3}, {}}},  {Opcode::kSubI, {{2, 3}, {}}},
      {Opcode::kMulI, {{2, 3}, {}}},  {Opcode::kDivI, {{2, 3}, {}}},
      {Opcode::kRemI, {{2, 3}, {}}},  {Opcode::kAndI, {{2, 3}, {}}},
      {Opcode::kOrI, {{2, 3}, {}}},   {Opcode::kXorI, {{2, 3}, {}}},
      {Opcode::kShlI, {{2, 3}, {}}},  {Opcode::kShrI, {{2, 3}, {}}},
      {Opcode::kMinI, {{2, 3}, {}}},  {Opcode::kMaxI, {{2, 3}, {}}},
      {Opcode::kLiI, {{}, {}}},       {Opcode::kMovI, {{2}, {}}},
      {Opcode::kCeqI, {{2, 3}, {}}},  {Opcode::kCneI, {{2, 3}, {}}},
      {Opcode::kCltI, {{2, 3}, {}}},  {Opcode::kCleI, {{2, 3}, {}}},
      {Opcode::kAddF, {{}, {2, 3}}},  {Opcode::kSubF, {{}, {2, 3}}},
      {Opcode::kMulF, {{}, {2, 3}}},  {Opcode::kDivF, {{}, {2, 3}}},
      {Opcode::kNegF, {{}, {2}}},     {Opcode::kAbsF, {{}, {2}}},
      {Opcode::kSqrtF, {{}, {2}}},    {Opcode::kMinF, {{}, {2, 3}}},
      {Opcode::kMaxF, {{}, {2, 3}}},  {Opcode::kFmaF, {{}, {1, 2, 3}}},
      {Opcode::kLiF, {{}, {}}},       {Opcode::kMovF, {{}, {2}}},
      {Opcode::kItoF, {{2}, {}}},     {Opcode::kFtoI, {{}, {2}}},
      {Opcode::kCeqF, {{}, {2, 3}}},  {Opcode::kCltF, {{}, {2, 3}}},
      {Opcode::kCleF, {{}, {2, 3}}},  {Opcode::kLdI, {{2}, {}}},
      {Opcode::kLdIX, {{2, 3}, {}}},  {Opcode::kStI, {{1, 2}, {}}},
      {Opcode::kStIX, {{1, 2, 3}, {}}}, {Opcode::kLdF, {{2}, {}}},
      {Opcode::kLdFX, {{2, 3}, {}}},  {Opcode::kStF, {{2}, {1}}},
      {Opcode::kStFX, {{2, 3}, {1}}}, {Opcode::kJmp, {{}, {}}},
      {Opcode::kBz, {{2}, {}}},       {Opcode::kBnz, {{2}, {}}},
      {Opcode::kCall, {{}, {}}},      {Opcode::kCallR, {{2}, {}}},
      {Opcode::kRet, {{}, {}}},       {Opcode::kHalt, {{}, {}}},
      {Opcode::kNop, {{}, {}}},       {Opcode::kEnqI, {{2}, {}}},
      {Opcode::kDeqI, {{}, {}}},      {Opcode::kEnqF, {{}, {2}}},
      {Opcode::kDeqF, {{}, {}}},
  };

  std::vector<isa::Instruction> code;
  for (int op = 0; op < isa::kNumOpcodes; ++op) {
    isa::Instruction instr;
    instr.op = static_cast<Opcode>(op);
    instr.dst = 1;
    instr.src1 = 2;
    instr.src2 = 3;
    code.push_back(instr);
  }
  const DecodedProgram decoded(isa::Program(code, {}, {}), CoreTiming{});

  auto sorted = [](const std::uint8_t* regs, int count) {
    std::vector<int> out(regs, regs + count);
    std::sort(out.begin(), out.end());
    return out;
  };
  for (int op = 0; op < isa::kNumOpcodes; ++op) {
    const Opcode opcode = static_cast<Opcode>(op);
    SCOPED_TRACE(std::string(isa::OpcodeName(opcode)));
    const auto row = expected.find(opcode);
    ASSERT_NE(row, expected.end()) << "opcode has no row in the table";
    const DecodedInstruction& di = decoded.at(op);
    EXPECT_EQ(sorted(di.gpr_srcs, di.num_gpr_srcs), row->second.gpr);
    EXPECT_EQ(sorted(di.fpr_srcs, di.num_fpr_srcs), row->second.fpr);
  }
}

}  // namespace
}  // namespace fgpar::sim
