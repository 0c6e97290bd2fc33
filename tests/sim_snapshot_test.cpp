// Machine snapshot/restore tests.
//
// The contract under test: pausing a machine at cycle k, serializing it,
// restoring the bytes into a freshly constructed machine, and continuing
// produces *bit-identical* results to an uninterrupted run — same final
// cycle count, same per-core statistics, same memory image — for all three
// run loops (fast multi-core, fast single-core, and the instrumented slow
// path pinned with force_tier = kSlow).
// Equality is asserted in the strongest possible form: the final snapshots
// of the two machines must be byte-for-byte identical.
//
// The negative half locks the failure modes: wrong version, wrong machine
// identity (different program or config), truncation, and trailing bytes
// must all throw structured errors instead of loading garbage state.
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "sim/machine.hpp"
#include "support/error.hpp"

namespace {

using namespace fgpar;

/// Two cores bouncing values through their queues; exercises the fast
/// path's issue-skip, fast-forward jumps, and stall accounting.
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

/// Single-core loop with loads, stores, and multi-cycle fp ops; exercises
/// the single-core fast loop's jump-to-next-issue and the cache model.
isa::Program SingleCoreProgram(std::int64_t iterations) {
  isa::Assembler a;
  isa::Label entry = a.NewNamedLabel("main");
  a.Bind(entry);
  a.LiI(isa::Gpr{1}, iterations);
  a.LiI(isa::Gpr{2}, 1);
  a.LiI(isa::Gpr{4}, 64);  // base address
  a.LiF(isa::Fpr{1}, 1.5);
  isa::Label top = a.NewLabel();
  a.Bind(top);
  a.StI(isa::Gpr{1}, isa::Gpr{4}, 0);
  a.LdI(isa::Gpr{5}, isa::Gpr{4}, 0);
  a.LdF(isa::Fpr{2}, isa::Gpr{4}, 0);
  a.MulF(isa::Fpr{2}, isa::Fpr{2}, isa::Fpr{1});
  a.StF(isa::Fpr{2}, isa::Gpr{4}, 1);
  a.AddI(isa::Gpr{4}, isa::Gpr{4}, isa::Gpr{2});
  a.SubI(isa::Gpr{1}, isa::Gpr{1}, isa::Gpr{2});
  a.Bnz(isa::Gpr{1}, top);
  a.Halt();
  return a.Finish();
}

/// A machine running PingPongProgram with both cores started.  Built in
/// place: a Machine can be neither copied nor moved (see
/// MachineIsNeitherCopyableNorMovable).
class PingPongMachine : public sim::Machine {
 public:
  PingPongMachine(const sim::MachineConfig& config,
                  const isa::Program& program)
      : sim::Machine(config, program) {
    StartCoreAt(0, "core0");
    StartCoreAt(1, "core1");
  }
};

/// A single-core machine started at "main".
class MainMachine : public sim::Machine {
 public:
  MainMachine(const sim::MachineConfig& config, const isa::Program& program)
      : sim::Machine(config, program) {
    StartCoreAt(0, "main");
  }
};

/// Runs a MachineT built from (config, program) to completion, then builds
/// a second one with a pause at `stop`, a snapshot, a restore into a third
/// machine, and a continuation — and requires the final snapshots to be
/// byte-identical.
template <typename MachineT>
void CheckPauseResumeIdentical(const sim::MachineConfig& config,
                               const isa::Program& program,
                               std::uint64_t stop) {
  MachineT uninterrupted(config, program);
  const sim::RunResult golden = uninterrupted.Run();
  const std::vector<std::uint8_t> golden_bytes = uninterrupted.Snapshot();

  MachineT paused(config, program);
  const sim::PauseResult pause = paused.RunUntil(stop);
  ASSERT_FALSE(pause.finished) << "stop cycle " << stop
                               << " did not pause (program too short?)";
  EXPECT_GE(paused.now(), stop);

  const std::vector<std::uint8_t> snapshot = paused.Snapshot();
  MachineT resumed(config, program);
  resumed.Restore(snapshot);
  EXPECT_EQ(resumed.now(), paused.now());

  const sim::RunResult result = resumed.Run();
  EXPECT_EQ(result.cycles, golden.cycles);
  EXPECT_EQ(result.core0_halt_cycle, golden.core0_halt_cycle);
  EXPECT_EQ(result.instructions, golden.instructions);
  EXPECT_EQ(resumed.Snapshot(), golden_bytes)
      << "final machine state diverged after pause/resume at cycle " << stop;

  // The paused machine itself must also be able to just keep running.
  const sim::RunResult direct = paused.Run();
  EXPECT_EQ(direct.cycles, golden.cycles);
  EXPECT_EQ(paused.Snapshot(), golden_bytes);
}

TEST(Snapshot, PauseResumeBitIdenticalFastPath) {
  const isa::Program program = PingPongProgram(400);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;

  PingPongMachine probe(config, program);
  const std::uint64_t total = probe.Run().cycles;
  for (const std::uint64_t stop :
       {std::uint64_t{1}, total / 7, total / 2, total - 2}) {
    CheckPauseResumeIdentical<PingPongMachine>(config, program, stop);
  }
}

TEST(Snapshot, PauseResumeBitIdenticalSingleCore) {
  const isa::Program program = SingleCoreProgram(300);
  sim::MachineConfig config;
  config.num_cores = 1;
  config.memory_words = 1 << 12;

  MainMachine probe(config, program);
  const std::uint64_t total = probe.Run().cycles;
  for (const std::uint64_t stop : {std::uint64_t{3}, total / 3, total - 1}) {
    CheckPauseResumeIdentical<MainMachine>(config, program, stop);
  }
}

TEST(Snapshot, PauseResumeBitIdenticalSlowPath) {
  // The only pause/resume test of the reference loop: its cycle-by-cycle
  // crawl while a value is in flight must resume exactly where it paused.
  const isa::Program program = PingPongProgram(300);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;
  config.force_tier = sim::RunTier::kSlow;

  PingPongMachine probe(config, program);
  ASSERT_EQ(probe.resolved_tier(), sim::RunTier::kSlow);
  const std::uint64_t total = probe.Run().cycles;
  for (const std::uint64_t stop : {total / 5, total / 2, total - 3}) {
    CheckPauseResumeIdentical<PingPongMachine>(config, program, stop);
  }
}

TEST(Snapshot, RepeatedPausesMatchUninterruptedRun) {
  const isa::Program program = PingPongProgram(200);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;

  PingPongMachine uninterrupted(config, program);
  const sim::RunResult golden = uninterrupted.Run();

  // March a second machine forward 97 cycles at a time, round-tripping
  // through snapshot bytes into a freshly built machine at every pause.
  std::optional<PingPongMachine> stepped;
  stepped.emplace(config, program);
  sim::PauseResult pause;
  int pauses = 0;
  while (true) {
    pause = stepped->RunUntil(stepped->now() + 97);
    if (pause.finished) {
      break;
    }
    ++pauses;
    const std::vector<std::uint8_t> bytes = stepped->Snapshot();
    stepped.emplace(config, program);
    stepped->Restore(bytes);
  }
  EXPECT_GT(pauses, 5) << "test expected to pause many times";
  EXPECT_EQ(pause.result.cycles, golden.cycles);
  EXPECT_EQ(pause.result.core0_halt_cycle, golden.core0_halt_cycle);
  EXPECT_EQ(pause.result.instructions, golden.instructions);
  EXPECT_EQ(stepped->Snapshot(), uninterrupted.Snapshot());
}

TEST(Snapshot, MachineIsNeitherCopyableNorMovable) {
  // Each core keeps a reference to its machine's config.  A moved machine
  // would leave the cores pointing at the old one, so state moves between
  // machines only through Snapshot/Restore.
  static_assert(!std::is_copy_constructible_v<sim::Machine>);
  static_assert(!std::is_copy_assignable_v<sim::Machine>);
  static_assert(!std::is_move_constructible_v<sim::Machine>);
  static_assert(!std::is_move_assignable_v<sim::Machine>);
}

TEST(Snapshot, RoundTripIsByteStable) {
  const isa::Program program = PingPongProgram(100);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;

  PingPongMachine m(config, program);
  ASSERT_FALSE(m.RunUntil(50).finished);
  const std::vector<std::uint8_t> bytes = m.Snapshot();

  PingPongMachine copy(config, program);
  copy.Restore(bytes);
  EXPECT_EQ(copy.Snapshot(), bytes);
}

std::string RestoreErrorOf(sim::Machine& m,
                           const std::vector<std::uint8_t>& bytes) {
  try {
    m.Restore(bytes);
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

TEST(Snapshot, RejectsVersionMismatch) {
  const isa::Program program = PingPongProgram(50);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;
  PingPongMachine m(config, program);
  std::vector<std::uint8_t> bytes = m.Snapshot();

  // Layout: u64 magic length + 10 magic bytes, then the u32 version.
  bytes[18] = 99;
  PingPongMachine target(config, program);
  const std::string error = RestoreErrorOf(target, bytes);
  EXPECT_NE(error.find("unsupported snapshot version 99"), std::string::npos)
      << error;
}

TEST(Snapshot, RejectsIdentityMismatch) {
  const isa::Program program = PingPongProgram(50);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;
  PingPongMachine m(config, program);
  const std::vector<std::uint8_t> bytes = m.Snapshot();

  sim::MachineConfig other = config;
  other.queue.capacity = 4;  // a different machine, same core count
  PingPongMachine target(other, program);
  const std::string error = RestoreErrorOf(target, bytes);
  EXPECT_NE(error.find("snapshot identity mismatch"), std::string::npos)
      << error;

  const isa::Program other_program = PingPongProgram(51);
  PingPongMachine target2(config, other_program);
  const std::string error2 = RestoreErrorOf(target2, bytes);
  EXPECT_NE(error2.find("snapshot identity mismatch"), std::string::npos)
      << error2;
}

TEST(Snapshot, RejectsCorruptStreams) {
  const isa::Program program = PingPongProgram(50);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;
  PingPongMachine m(config, program);
  const std::vector<std::uint8_t> bytes = m.Snapshot();

  PingPongMachine target(config, program);

  // Not a snapshot at all.
  EXPECT_NE(RestoreErrorOf(target, {1, 2, 3}).find("truncated byte stream"),
            std::string::npos);

  // Truncated mid-state.
  std::vector<std::uint8_t> truncated(bytes.begin(),
                                      bytes.begin() + bytes.size() / 2);
  EXPECT_NE(RestoreErrorOf(target, truncated).find("truncated byte stream"),
            std::string::npos);

  // Trailing garbage.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_NE(RestoreErrorOf(target, padded).find("trailing bytes"),
            std::string::npos);
}

TEST(Snapshot, IdentityHashIsStableAndDiscriminating) {
  const isa::Program program = PingPongProgram(50);
  sim::MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 12;
  PingPongMachine a(config, program);
  PingPongMachine b(config, program);
  EXPECT_EQ(a.IdentityHash(), b.IdentityHash());

  sim::MachineConfig other = config;
  other.timing.fp_mul = 7;
  PingPongMachine c(other, program);
  EXPECT_NE(a.IdentityHash(), c.IdentityHash());
}

}  // namespace
