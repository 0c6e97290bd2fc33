// Unit tests for the code generator (compiler/lower.cpp): program
// structure, the Section III-G dispatch protocol, register discipline, and
// the sequential baseline.
#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "frontend/parser.hpp"
#include "isa/disasm.hpp"
#include "support/error.hpp"

namespace fgpar::compiler {
namespace {

constexpr const char* kSimple = R"(
kernel simple {
  param i64 n;
  param f64 c;
  array f64 a[32];
  array f64 o1[32];
  array f64 o2[32];
  loop i = 0 .. n {
    o1[i] = a[i] * c + 1.0;
    o2[i] = sqrt(abs(a[i])) - c;
  }
}
)";

CompiledParallel Compile(const char* source, int cores) {
  ir::Kernel kernel = frontend::ParseKernel(source);
  ir::DataLayout layout(kernel);
  CompileOptions options;
  options.num_cores = cores;
  return CompileParallel(kernel, layout, options);
}

TEST(Lower, ParallelProgramHasEntrySymbols) {
  const CompiledParallel compiled = Compile(kSimple, 2);
  EXPECT_TRUE(compiled.program.HasSymbol("main"));
  EXPECT_TRUE(compiled.program.HasSymbol("driver"));
  for (int c = 1; c < compiled.cores_used; ++c) {
    std::string entry = "F";
    entry += std::to_string(c);
    EXPECT_TRUE(compiled.program.HasSymbol(entry));
  }
  EXPECT_EQ(compiled.program.EntryOf("main"), 0);  // primary enters at pc 0
}

TEST(Lower, DriverIsTheDispatchLoop) {
  const CompiledParallel compiled = Compile(kSimple, 2);
  const isa::Program& p = compiled.program;
  std::int64_t pc = p.EntryOf("driver");
  // deq fn-ptr; branch-if-zero to halt; indirect call; loop back.
  EXPECT_EQ(p.at(pc).op, isa::Opcode::kDeqI);
  EXPECT_EQ(p.at(pc).queue, 0);  // from the primary
  EXPECT_EQ(p.at(pc + 1).op, isa::Opcode::kBz);
  EXPECT_EQ(p.at(pc + 2).op, isa::Opcode::kCallR);
  EXPECT_EQ(p.at(pc + 3).op, isa::Opcode::kJmp);
  EXPECT_EQ(p.at(pc + 3).imm, pc);
  EXPECT_EQ(p.at(p.at(pc + 1).imm).op, isa::Opcode::kHalt);
}

TEST(Lower, PrimaryDispatchesFunctionPointersBeforeArgs) {
  const CompiledParallel compiled = Compile(kSimple, 2);
  const isa::Program& p = compiled.program;
  // Somewhere before the loop, main enqueues the entry pc of F1 to core 1.
  const std::int64_t f1 = p.EntryOf("F1");
  bool found = false;
  for (std::int64_t pc = 0; pc + 1 < static_cast<std::int64_t>(p.size()); ++pc) {
    if (p.at(pc).op == isa::Opcode::kLiI && p.at(pc).imm == f1 &&
        p.at(pc + 1).op == isa::Opcode::kEnqI && p.at(pc + 1).queue == 1) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "no fn-pointer dispatch found";
}

TEST(Lower, OutlinedFunctionsReturn) {
  const CompiledParallel compiled = Compile(kSimple, 2);
  const isa::Program& p = compiled.program;
  // F1 runs to a Ret (back into the driver loop), never into a Halt of its
  // own — termination is the driver's job.
  const std::int64_t f1 = p.EntryOf("F1");
  bool saw_ret = false;
  for (std::int64_t pc = f1; pc < static_cast<std::int64_t>(p.size()); ++pc) {
    if (p.at(pc).op == isa::Opcode::kRet) {
      saw_ret = true;
      break;
    }
    ASSERT_NE(p.at(pc).op, isa::Opcode::kHalt);
  }
  EXPECT_TRUE(saw_ret);
}

TEST(Lower, SequentialProgramHasNoQueueOps) {
  ir::Kernel kernel = frontend::ParseKernel(kSimple);
  ir::DataLayout layout(kernel);
  const isa::Program p = CompileSequential(kernel, layout, CompileOptions{});
  for (std::int64_t pc = 0; pc < static_cast<std::int64_t>(p.size()); ++pc) {
    EXPECT_FALSE(isa::IsQueueOp(p.at(pc).op))
        << "sequential code must not touch queues (pc " << pc << ")";
  }
  EXPECT_EQ(p.at(static_cast<std::int64_t>(p.size()) - 1).op,
            isa::Opcode::kHalt);
}

TEST(Lower, QueueOperandsStayInRange) {
  const CompiledParallel compiled = Compile(kSimple, 4);
  const isa::Program& p = compiled.program;
  for (std::int64_t pc = 0; pc < static_cast<std::int64_t>(p.size()); ++pc) {
    const isa::Instruction& instr = p.at(pc);
    if (isa::IsQueueOp(instr.op)) {
      EXPECT_GE(instr.queue, 0);
      EXPECT_LT(instr.queue, compiled.cores_used);
    }
  }
}

TEST(Lower, BranchTargetsStayInRange) {
  const CompiledParallel compiled = Compile(R"(
kernel branched {
  param i64 n;
  array f64 a[32];
  array f64 o[32];
  loop i = 0 .. n {
    f64 v = a[i] * 2.0;
    if (v < 1.0) {
      o[i] = v;
    } else {
      o[i] = v * 3.0;
    }
  }
}
)",
                                            4);
  const isa::Program& p = compiled.program;
  for (std::int64_t pc = 0; pc < static_cast<std::int64_t>(p.size()); ++pc) {
    const isa::Instruction& instr = p.at(pc);
    if (isa::IsBranch(instr.op) || instr.op == isa::Opcode::kCall) {
      EXPECT_GE(instr.imm, 0);
      EXPECT_LT(instr.imm, static_cast<std::int64_t>(p.size()));
    }
  }
}

TEST(Lower, RegisterPressureFailureIsDiagnosed) {
  // A kernel with more simultaneously-live f64 temps than the register file
  // (52 dedicated + pool) must fail with a clear message, not silently
  // miscompile.
  std::string source = "kernel pressure {\n  array f64 a[8];\n  array f64 o[8];\n"
                       "  loop i = 0 .. 8 {\n";
  for (int t = 0; t < 80; ++t) {
    source += "    f64 t" + std::to_string(t) + " = a[i] * " +
              std::to_string(t) + ".5;\n";
  }
  source += "    o[i] = t0";
  for (int t = 1; t < 80; ++t) {
    source += " + t" + std::to_string(t);
  }
  source += ";\n  }\n}\n";
  ir::Kernel kernel = frontend::ParseKernel(source);
  ir::DataLayout layout(kernel);
  try {
    CompileSequential(kernel, layout, CompileOptions{});
    FAIL() << "expected register exhaustion";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("register"), std::string::npos);
  }
}

TEST(Lower, SequentiallyDeadTempsRecycleRegisters) {
  // 120 temps whose lifetimes never overlap (each one dies feeding the
  // next) compile fine: the allocator recycles registers at last use, so
  // only the peak number of simultaneously-live values matters.
  std::string source = "kernel chain {\n  array f64 a[8];\n  array f64 o[8];\n"
                       "  loop i = 0 .. 8 {\n    f64 t0 = a[i] * 1.5;\n";
  for (int t = 1; t < 120; ++t) {
    source += "    f64 t" + std::to_string(t) + " = t" + std::to_string(t - 1) +
              " * 1.01 + 0.25;\n";
  }
  source += "    o[i] = t119;\n  }\n}\n";
  ir::Kernel kernel = frontend::ParseKernel(source);
  ir::DataLayout layout(kernel);
  EXPECT_NO_THROW(CompileSequential(kernel, layout, CompileOptions{}));
  CompileOptions options;
  options.num_cores = 4;
  EXPECT_NO_THROW(CompileParallel(kernel, layout, options));
}

TEST(Lower, DisassemblyRoundTripsEveryInstruction) {
  const CompiledParallel compiled = Compile(kSimple, 4);
  // Smoke test: every emitted instruction disassembles without throwing.
  const std::string listing = isa::DisassembleProgram(compiled.program);
  EXPECT_GT(listing.size(), 100u);
  EXPECT_NE(listing.find("main:"), std::string::npos);
  EXPECT_NE(listing.find("driver:"), std::string::npos);
}

}  // namespace
}  // namespace fgpar::compiler
