// Machine snapshot tests.
//
// Snapshots are write-only: repro bundles compare the bytes of a failed
// machine's snapshot with a replay's.  What they rely on is locked here —
// the identity hash folded into every snapshot is stable across machines
// built from the same program and configuration and differs when either
// changes, and a Machine cannot be copied or moved, so a snapshot always
// describes the machine its cores belong to.  The tier-equivalence tests
// in sim_golden_test.cpp and sim_threaded_test.cpp compare snapshot bytes
// across run tiers.
#include <cstdint>
#include <type_traits>

#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "sim/machine.hpp"

namespace {

using namespace fgpar;

/// Two cores bouncing values through their queues.
isa::Program PingPongProgram(std::int64_t rounds) {
  isa::Assembler a;
  isa::Label core0 = a.NewNamedLabel("core0");
  isa::Label core1 = a.NewNamedLabel("core1");

  a.Bind(core0);
  a.LiI(isa::Gpr{1}, rounds);
  a.LiI(isa::Gpr{2}, 1);
  isa::Label top0 = a.NewLabel();
  a.Bind(top0);
  a.EnqI(1, isa::Gpr{1});
  a.DeqI(1, isa::Gpr{3});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top0);
  a.Halt();

  a.Bind(core1);
  a.LiI(isa::Gpr{1}, rounds);
  a.LiI(isa::Gpr{2}, 1);
  isa::Label top1 = a.NewLabel();
  a.Bind(top1);
  a.DeqI(0, isa::Gpr{3});
  a.EnqI(0, isa::Gpr{3});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top1);
  a.Halt();
  return a.Finish();
}

TEST(Snapshot, MachineIsNeitherCopyableNorMovable) {
  // Each core keeps a reference to its machine's config.  A moved machine
  // would leave the cores pointing at the old one.
  static_assert(!std::is_copy_constructible_v<sim::Machine>);
  static_assert(!std::is_copy_assignable_v<sim::Machine>);
  static_assert(!std::is_move_constructible_v<sim::Machine>);
  static_assert(!std::is_move_assignable_v<sim::Machine>);
}

TEST(Snapshot, IdentityHashIsStableAndDiscriminating) {
  const isa::Program program = PingPongProgram(50);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;
  sim::Machine a(config, program);
  sim::Machine b(config, program);
  EXPECT_EQ(a.IdentityHash(), b.IdentityHash());

  sim::MachineConfig other = config;
  other.timing.fp_mul = 7;
  sim::Machine c(other, program);
  EXPECT_NE(a.IdentityHash(), c.IdentityHash());
}

}  // namespace
