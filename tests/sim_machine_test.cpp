// Multi-core machine tests: queue communication between cores, blocking,
// deadlock detection, and the Figure 11 transfer-latency behaviour.
#include <gtest/gtest.h>

#include <cstdint>
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

constexpr RunTier kAllTiers[] = {RunTier::kSlow, RunTier::kFast,
                                 RunTier::kAuto};

MachineConfig TwoCores() {
  MachineConfig config;
  config.num_cores = 2;
  config.memory_words = 1 << 16;
  return config;
}

TEST(Machine, ValueTravelsBetweenCores) {
  Assembler a;
  isa::Label core0 = a.NewNamedLabel("core0");
  isa::Label core1 = a.NewNamedLabel("core1");
  a.Bind(core0);
  a.LiI(Gpr{1}, 1234);
  a.EnqI(1, Gpr{1});
  a.Halt();
  a.Bind(core1);
  a.DeqI(0, Gpr{2});
  a.Halt();

  Machine m(TwoCores(), a.Finish());
  m.StartCoreAt(0, "core0");
  m.StartCoreAt(1, "core1");
  m.Run();
  EXPECT_EQ(m.core(1).gpr(2), 1234);
  EXPECT_EQ(m.core(0).stats().enqueues, 1u);
  EXPECT_EQ(m.core(1).stats().dequeues, 1u);
}

TEST(Machine, FloatQueueCarriesExactBits) {
  Assembler a;
  isa::Label core0 = a.NewNamedLabel("core0");
  isa::Label core1 = a.NewNamedLabel("core1");
  a.Bind(core0);
  a.LiF(Fpr{1}, -0.1);
  a.EnqF(1, Fpr{1});
  a.Halt();
  a.Bind(core1);
  a.DeqF(0, Fpr{2});
  a.Halt();

  Machine m(TwoCores(), a.Finish());
  m.StartCoreAt(0, "core0");
  m.StartCoreAt(1, "core1");
  m.Run();
  EXPECT_DOUBLE_EQ(m.core(1).fpr(2), -0.1);
}

TEST(Machine, EarlyDequeueStallsUntilArrival) {
  // Figure 11: the receiver issues its dequeue before the sender's enqueue;
  // it must stall until enqueue-time + transfer latency.
  Assembler a;
  isa::Label sender = a.NewNamedLabel("sender");
  isa::Label receiver = a.NewNamedLabel("receiver");
  a.Bind(sender);
  a.LiI(Gpr{1}, 7);
  a.EnqI(1, Gpr{1});
  a.Halt();
  a.Bind(receiver);
  a.DeqI(0, Gpr{2});
  a.Halt();
  const isa::Program program = a.Finish();

  for (RunTier tier : kAllTiers) {
    SCOPED_TRACE(testing::Message() << "tier " << static_cast<int>(tier));
    MachineConfig config = TwoCores();
    config.queue.transfer_latency = 50;
    config.force_tier = tier;
    Machine m(config, program);
    m.StartCoreAt(0, "sender");
    m.StartCoreAt(1, "receiver");
    RunResult r = m.Run();
    // Sender enqueues at cycle 1; the value arrives at cycle 51, so the
    // receiver is blocked on cycles 0..50, each charged once, and halts
    // at cycle 52.
    EXPECT_EQ(r.cycles, 53u);
    EXPECT_EQ(m.core(1).stats().stall_queue_empty, 51u);
    EXPECT_EQ(m.core(1).gpr(2), 7);
  }
}

TEST(Machine, LongTransferLatencyCompletes) {
  // A value in flight for 2^21 cycles: the slow loop crawls the wait one
  // cycle at a time, the fast loop sleeps through it.  Nothing issues for
  // two million cycles, yet the run is neither stuck nor deadlocked, and
  // every tier completes in the same state.
  Assembler a;
  isa::Label sender = a.NewNamedLabel("sender");
  isa::Label receiver = a.NewNamedLabel("receiver");
  a.Bind(sender);
  a.LiI(Gpr{1}, 7);
  a.EnqI(1, Gpr{1});
  a.Halt();
  a.Bind(receiver);
  a.DeqI(0, Gpr{2});
  a.Halt();
  const isa::Program program = a.Finish();

  std::vector<std::vector<std::uint8_t>> snapshots;
  for (RunTier tier : kAllTiers) {
    SCOPED_TRACE(testing::Message() << "tier " << static_cast<int>(tier));
    MachineConfig config = TwoCores();
    config.queue.transfer_latency = 1 << 21;
    config.force_tier = tier;
    Machine m(config, program);
    m.StartCoreAt(0, "sender");
    m.StartCoreAt(1, "receiver");
    const RunResult r = m.Run();
    // Enqueued at cycle 1, the value arrives at 2^21 + 1.
    EXPECT_EQ(r.cycles, (1u << 21) + 3);
    EXPECT_EQ(m.core(1).stats().stall_queue_empty, (1u << 21) + 1);
    EXPECT_EQ(m.core(1).gpr(2), 7);
    snapshots.push_back(m.Snapshot());
  }
  EXPECT_TRUE(snapshots[1] == snapshots[0]) << "fast and slow states differ";
  EXPECT_TRUE(snapshots[2] == snapshots[0]) << "auto and slow states differ";
}

TEST(Machine, LateDequeueDoesNotStall) {
  // Figure 11, core 3: a dequeue issued after arrival proceeds immediately.
  MachineConfig config = TwoCores();
  config.queue.transfer_latency = 5;

  Assembler a;
  isa::Label sender = a.NewNamedLabel("sender");
  isa::Label receiver = a.NewNamedLabel("receiver");
  a.Bind(sender);
  a.LiI(Gpr{1}, 7);
  a.EnqI(1, Gpr{1});
  a.Halt();
  a.Bind(receiver);
  // Busy-work long past the arrival time before dequeuing.
  a.LiI(Gpr{3}, 0);
  a.LiI(Gpr{4}, 1);
  for (int i = 0; i < 40; ++i) {
    a.AddI(Gpr{3}, Gpr{3}, Gpr{4});
  }
  a.DeqI(0, Gpr{2});
  a.Halt();

  Machine m(config, a.Finish());
  m.StartCoreAt(0, "sender");
  m.StartCoreAt(1, "receiver");
  m.Run();
  EXPECT_EQ(m.core(1).stats().stall_queue_empty, 0u);
  EXPECT_EQ(m.core(1).gpr(2), 7);
}

TEST(Machine, EnqueueBlocksWhenQueueFull) {
  MachineConfig config = TwoCores();
  config.queue.capacity = 2;

  Assembler a;
  isa::Label sender = a.NewNamedLabel("sender");
  isa::Label receiver = a.NewNamedLabel("receiver");
  a.Bind(sender);
  a.LiI(Gpr{1}, 1);
  for (int i = 0; i < 6; ++i) {
    a.EnqI(1, Gpr{1});
  }
  a.Halt();
  a.Bind(receiver);
  // Delay, then drain all six values.
  a.LiI(Gpr{3}, 0);
  a.LiI(Gpr{4}, 1);
  for (int i = 0; i < 100; ++i) {
    a.AddI(Gpr{3}, Gpr{3}, Gpr{4});
  }
  for (int i = 0; i < 6; ++i) {
    a.DeqI(0, Gpr{2});
  }
  a.Halt();

  const isa::Program program = a.Finish();

  for (RunTier tier : kAllTiers) {
    SCOPED_TRACE(testing::Message() << "tier " << static_cast<int>(tier));
    config.force_tier = tier;
    Machine m(config, program);
    m.StartCoreAt(0, "sender");
    m.StartCoreAt(1, "receiver");
    m.Run();
    // Each blocked cycle is charged once: the sender waits on a full queue
    // until the receiver's delay loop ends, and the receiver then waits for
    // the values the sender could only enqueue once slots freed up.
    EXPECT_EQ(m.core(0).stats().stall_queue_full, 104u);
    EXPECT_EQ(m.core(1).stats().stall_queue_empty, 8u);
    EXPECT_EQ(m.core(0).stats().enqueues, 6u);
    EXPECT_EQ(m.core(1).stats().dequeues, 6u);
  }
}

TEST(Machine, PingPongRoundTrip) {
  Assembler a;
  isa::Label core0 = a.NewNamedLabel("core0");
  isa::Label core1 = a.NewNamedLabel("core1");
  a.Bind(core0);
  a.LiI(Gpr{1}, 10);
  a.EnqI(1, Gpr{1});
  a.DeqI(1, Gpr{2});  // receives 11
  a.Halt();
  a.Bind(core1);
  a.DeqI(0, Gpr{1});
  a.LiI(Gpr{3}, 1);
  a.AddI(Gpr{1}, Gpr{1}, Gpr{3});
  a.EnqI(0, Gpr{1});
  a.Halt();

  Machine m(TwoCores(), a.Finish());
  m.StartCoreAt(0, "core0");
  m.StartCoreAt(1, "core1");
  m.Run();
  EXPECT_EQ(m.core(0).gpr(2), 11);
}

TEST(Machine, DeadlockDetectedWhenBothCoresDequeue) {
  Assembler a;
  isa::Label core0 = a.NewNamedLabel("core0");
  isa::Label core1 = a.NewNamedLabel("core1");
  a.Bind(core0);
  a.DeqI(1, Gpr{1});
  a.Halt();
  a.Bind(core1);
  a.DeqI(0, Gpr{1});
  a.Halt();
  const isa::Program program = a.Finish();

  // Nothing ever issues: every tier finds the deadlock in cycle 0, with
  // each core charged that one stalled cycle, in the same state.
  std::vector<std::vector<std::uint8_t>> snapshots;
  for (RunTier tier : kAllTiers) {
    SCOPED_TRACE(testing::Message() << "tier " << static_cast<int>(tier));
    MachineConfig config = TwoCores();
    config.force_tier = tier;
    Machine m(config, program);
    m.StartCoreAt(0, "core0");
    m.StartCoreAt(1, "core1");
    EXPECT_THROW(m.Run(), DeadlockError);
    EXPECT_EQ(m.now(), 0u);
    EXPECT_EQ(m.core(0).stats().stall_queue_empty, 1u);
    EXPECT_EQ(m.core(1).stats().stall_queue_empty, 1u);
    snapshots.push_back(m.Snapshot());
  }
  EXPECT_TRUE(snapshots[1] == snapshots[0]) << "fast and slow states differ";
  EXPECT_TRUE(snapshots[2] == snapshots[0]) << "auto and slow states differ";
}

TEST(Machine, DeadlockDetectedOnEnqueueToHaltedReceiver) {
  MachineConfig config = TwoCores();
  config.queue.capacity = 1;
  Assembler a;
  isa::Label core0 = a.NewNamedLabel("core0");
  isa::Label core1 = a.NewNamedLabel("core1");
  a.Bind(core0);
  a.LiI(Gpr{1}, 1);
  a.EnqI(1, Gpr{1});
  a.EnqI(1, Gpr{1});  // queue full, receiver already halted
  a.Halt();
  a.Bind(core1);
  a.Halt();
  const isa::Program program = a.Finish();

  // The second enqueue stalls at cycle 2, the first cycle after the last
  // issue: the deadlock is found there, with that one cycle charged.
  for (RunTier tier : kAllTiers) {
    SCOPED_TRACE(testing::Message() << "tier " << static_cast<int>(tier));
    config.force_tier = tier;
    Machine m(config, program);
    m.StartCoreAt(0, "core0");
    m.StartCoreAt(1, "core1");
    EXPECT_THROW(m.Run(), DeadlockError);
    EXPECT_EQ(m.now(), 2u);
    EXPECT_EQ(m.core(0).stats().stall_queue_full, 1u);
  }
}

TEST(Machine, DeadlockMessageNamesStuckCores) {
  Assembler a;
  isa::Label core0 = a.NewNamedLabel("core0");
  isa::Label core1 = a.NewNamedLabel("core1");
  a.Bind(core0);
  a.DeqI(1, Gpr{1});
  a.Halt();
  a.Bind(core1);
  a.DeqI(0, Gpr{1});
  a.Halt();
  Machine m(TwoCores(), a.Finish());
  m.StartCoreAt(0, "core0");
  m.StartCoreAt(1, "core1");
  try {
    m.Run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("core 0"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("deqi"), std::string::npos);
  }
}

TEST(Watchdog, DeadlockReportNamesCoreQueueAndClass) {
  // Both cores dequeue from each other's fp queue: a provable deadlock
  // whose report must name the blocked cores, direction, and class.
  Assembler a;
  isa::Label core0 = a.NewNamedLabel("core0");
  isa::Label core1 = a.NewNamedLabel("core1");
  a.Bind(core0);
  a.DeqF(1, Fpr{1});
  a.Halt();
  a.Bind(core1);
  a.DeqF(0, Fpr{1});
  a.Halt();
  Machine m(TwoCores(), a.Finish());
  m.StartCoreAt(0, "core0");
  m.StartCoreAt(1, "core1");
  try {
    m.Run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const StallReport& report = e.report();
    ASSERT_EQ(report.cores.size(), 2u);
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(report.cores[c].wait, StallReport::CoreState::Wait::kDeqEmpty);
      EXPECT_EQ(report.cores[c].remote_core, 1 - c);
      EXPECT_TRUE(report.cores[c].queue_is_fp);
    }
    const std::string msg = e.what();
    EXPECT_NE(msg.find("hardware queue deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("core 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("core 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fp queue 1->0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fp queue 0->1"), std::string::npos) << msg;
  }
}

TEST(Machine, QueueMatrixChannelAccounting) {
  Assembler a;
  isa::Label core0 = a.NewNamedLabel("core0");
  isa::Label core1 = a.NewNamedLabel("core1");
  a.Bind(core0);
  a.LiI(Gpr{1}, 1);
  a.LiF(Fpr{1}, 2.0);
  a.EnqI(1, Gpr{1});
  a.EnqF(1, Fpr{1});
  a.DeqI(1, Gpr{2});
  a.Halt();
  a.Bind(core1);
  a.DeqI(0, Gpr{1});
  a.DeqF(0, Fpr{1});
  a.EnqI(0, Gpr{1});
  a.Halt();

  Machine m(TwoCores(), a.Finish());
  m.StartCoreAt(0, "core0");
  m.StartCoreAt(1, "core1");
  m.Run();
  // 0->1 (int+fp on the same channel) and 1->0: two directional channels.
  EXPECT_EQ(m.queues().UsedChannelCount(), 2);
  EXPECT_EQ(m.queues().TotalTransfers(), 3u);
}

TEST(Machine, FourCoreAllToAll) {
  MachineConfig config;
  config.num_cores = 4;
  config.memory_words = 1 << 16;
  // Every core sends its id to every other core, then sums what it receives.
  Assembler a;
  std::vector<isa::Label> entries;
  for (int c = 0; c < 4; ++c) {
    entries.push_back(a.NewNamedLabel("core" + std::to_string(c)));
  }
  for (int c = 0; c < 4; ++c) {
    a.Bind(entries[static_cast<std::size_t>(c)]);
    a.LiI(Gpr{1}, c);
    for (int other = 0; other < 4; ++other) {
      if (other != c) {
        a.EnqI(other, Gpr{1});
      }
    }
    a.LiI(Gpr{2}, 0);
    for (int other = 0; other < 4; ++other) {
      if (other != c) {
        a.DeqI(other, Gpr{3});
        a.AddI(Gpr{2}, Gpr{2}, Gpr{3});
      }
    }
    a.Halt();
  }

  Machine m(config, a.Finish());
  for (int c = 0; c < 4; ++c) {
    m.StartCoreAt(c, "core" + std::to_string(c));
  }
  m.Run();
  EXPECT_EQ(m.core(0).gpr(2), 1 + 2 + 3);
  EXPECT_EQ(m.core(1).gpr(2), 0 + 2 + 3);
  EXPECT_EQ(m.core(2).gpr(2), 0 + 1 + 3);
  EXPECT_EQ(m.core(3).gpr(2), 0 + 1 + 2);
  EXPECT_EQ(m.queues().UsedChannelCount(), 12);
}

TEST(Machine, RunWithoutStartedCoresEndsAtOnce) {
  Assembler a;
  a.Halt();
  const isa::Program program = a.Finish();
  for (RunTier tier : kAllTiers) {
    SCOPED_TRACE(testing::Message() << "tier " << static_cast<int>(tier));
    MachineConfig config = TwoCores();
    config.force_tier = tier;
    Machine m(config, program);
    EXPECT_EQ(m.Run().cycles, 0u);
    EXPECT_EQ(m.now(), 0u);
  }
}

TEST(Machine, TransferLatencyOfZeroRejected) {
  MachineConfig config = TwoCores();
  config.queue.transfer_latency = 0;
  Assembler a;
  a.Halt();
  EXPECT_THROW(Machine(config, a.Finish()), Error);
}

TEST(Machine, SharedMemoryVisibleAcrossCores) {
  Assembler a;
  isa::Label writer = a.NewNamedLabel("writer");
  isa::Label reader = a.NewNamedLabel("reader");
  a.Bind(writer);
  a.LiI(Gpr{1}, 500);
  a.LiI(Gpr{2}, 777);
  a.StI(Gpr{2}, Gpr{1}, 0);
  a.LiI(Gpr{3}, 1);
  a.EnqI(1, Gpr{3});  // signal "data ready"
  a.Halt();
  a.Bind(reader);
  a.DeqI(0, Gpr{3});  // wait for the signal
  a.LiI(Gpr{1}, 500);
  a.LdI(Gpr{4}, Gpr{1}, 0);
  a.Halt();

  Machine m(TwoCores(), a.Finish());
  m.StartCoreAt(0, "writer");
  m.StartCoreAt(1, "reader");
  m.Run();
  EXPECT_EQ(m.core(1).gpr(4), 777);
}

}  // namespace
}  // namespace fgpar::sim
