// Unit + property tests for the hardware queue semantics (Section II).
#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "sim/hw_queue.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace fgpar::sim {
namespace {

TEST(HardwareQueue, FifoOrder) {
  HardwareQueue q(4, 1);
  q.Enqueue(10, 0);
  q.Enqueue(20, 0);
  q.Enqueue(30, 1);
  EXPECT_EQ(q.Dequeue(100), 10u);
  EXPECT_EQ(q.Dequeue(100), 20u);
  EXPECT_EQ(q.Dequeue(100), 30u);
  EXPECT_TRUE(q.empty());
}

TEST(HardwareQueue, TransferLatencyDelaysVisibility) {
  // Figure 11: value enqueued at T is visible at T + transfer latency.
  HardwareQueue q(4, 5);
  q.Enqueue(42, 100);
  EXPECT_FALSE(q.CanDequeue(100));
  EXPECT_FALSE(q.CanDequeue(104));
  EXPECT_TRUE(q.CanDequeue(105));
  EXPECT_EQ(q.Dequeue(105), 42u);
}

TEST(HardwareQueue, LateDequeueSeesValueImmediately) {
  // Figure 11, core 3 case: dequeue later than arrival proceeds at once.
  HardwareQueue q(4, 5);
  q.Enqueue(7, 10);
  EXPECT_TRUE(q.CanDequeue(1000));
}

TEST(HardwareQueue, CapacityIncludesInFlightValues) {
  HardwareQueue q(2, 50);
  q.Enqueue(1, 0);
  q.Enqueue(2, 0);
  EXPECT_FALSE(q.CanEnqueue());  // both values still in flight
  EXPECT_EQ(q.size(), 2);
}

TEST(HardwareQueue, EnqueueWhenFullThrows) {
  HardwareQueue q(1, 1);
  q.Enqueue(1, 0);
  EXPECT_THROW(q.Enqueue(2, 0), Error);
}

TEST(HardwareQueue, DequeueBeforeArrivalThrows) {
  HardwareQueue q(1, 10);
  q.Enqueue(1, 0);
  EXPECT_THROW(q.Dequeue(5), Error);
}

TEST(HardwareQueue, DequeueEmptyThrows) {
  HardwareQueue q(1, 1);
  EXPECT_THROW(q.Dequeue(100), Error);
}

TEST(HardwareQueue, StatsTrackTransfersAndOccupancy) {
  HardwareQueue q(8, 1);
  for (int i = 0; i < 5; ++i) {
    q.Enqueue(static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_EQ(q.max_occupancy(), 5);
  for (int i = 0; i < 5; ++i) {
    q.Dequeue(10);
  }
  EXPECT_EQ(q.total_transfers(), 5u);
  EXPECT_EQ(q.max_occupancy(), 5);  // high-water mark persists
}

TEST(HardwareQueue, RejectsNonPositiveCapacity) {
  EXPECT_THROW(HardwareQueue(0, 1), Error);
}

// Property: against a reference std::deque model, arbitrary interleavings of
// enqueue/dequeue at monotonically increasing cycles preserve FIFO content.
class QueueModelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueModelProperty, MatchesReferenceModel) {
  Rng rng(GetParam());
  const int capacity = static_cast<int>(rng.NextInt(1, 20));
  const int latency = static_cast<int>(rng.NextInt(1, 50));
  HardwareQueue q(capacity, latency);
  struct Ref {
    std::uint64_t payload;
    std::uint64_t arrival;
  };
  std::deque<Ref> model;
  std::uint64_t now = 0;
  for (int step = 0; step < 500; ++step) {
    now += rng.NextBelow(8);
    if (rng.NextBool(0.55) && static_cast<int>(model.size()) < capacity) {
      const std::uint64_t payload = rng.NextU64();
      ASSERT_TRUE(q.CanEnqueue());
      q.Enqueue(payload, now);
      model.push_back(Ref{payload, now + static_cast<std::uint64_t>(latency)});
    } else if (!model.empty() && model.front().arrival <= now) {
      ASSERT_TRUE(q.CanDequeue(now));
      EXPECT_EQ(q.Dequeue(now), model.front().payload);
      model.pop_front();
    } else {
      EXPECT_FALSE(q.CanDequeue(now) && model.empty());
    }
    EXPECT_EQ(q.size(), static_cast<int>(model.size()));
    EXPECT_EQ(q.CanDequeue(now), !model.empty() && model.front().arrival <= now);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueModelProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// Each violated queue precondition throws an Error whose text names it.

TEST(QueueGuards, DequeueFromEmptyThrowsDiagnostic) {
  HardwareQueue q(/*capacity=*/2, /*transfer_latency=*/5);
  try {
    q.Dequeue(10);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("dequeue from empty hardware queue"),
              std::string::npos)
        << e.what();
  }
}

TEST(QueueGuards, DequeueBeforeArrivalThrowsDiagnostic) {
  HardwareQueue q(2, 5);
  q.Enqueue(99, /*now=*/10);  // arrives at 15
  try {
    q.Dequeue(12);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("dequeue before arrival"), std::string::npos) << msg;
    EXPECT_NE(msg.find("arrives at cycle 15"), std::string::npos) << msg;
  }
}

TEST(QueueGuards, EnqueueIntoFullThrowsDiagnostic) {
  HardwareQueue q(1, 5);
  q.Enqueue(1, 0);
  try {
    q.Enqueue(2, 1);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("enqueue into full hardware queue"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("capacity 1"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace fgpar::sim
