// The paper's dedicated hardware communication queue (Section II).
//
// One HardwareQueue carries values of one register class (int or fp) in one
// direction between a fixed (sender, receiver) core pair.  Semantics:
//
//  * fixed capacity; an enqueue is rejected (the core stalls and retries)
//    while all slots are occupied — occupancy includes values still in
//    flight;
//  * a value enqueued at cycle T becomes visible to the receiver at cycle
//    T + transfer_latency (Figure 11 of the paper);
//  * dequeues block until the head value has arrived;
//  * strict FIFO order.
//
// Values are stored as raw 64-bit payloads; the int/fp distinction lives in
// the queue *identity*, matching the paper's separate GPR and FPR queues.
//
// Enqueue/Dequeue enforce their preconditions (CanEnqueue/CanDequeue) with
// diagnostic FGPAR_CHECK_MSG failures that describe the queue state, so
// caller bugs throw instead of silently corrupting FIFO state.
#pragma once

#include <cstdint>
#include <deque>

namespace fgpar {
class ByteWriter;
}  // namespace fgpar

namespace fgpar::sim {

class HardwareQueue {
 public:
  HardwareQueue(int capacity, int transfer_latency);

  /// True if an enqueue can be accepted this cycle.
  bool CanEnqueue() const;

  /// Inserts a payload at cycle `now`; caller must have checked CanEnqueue
  /// (throws a diagnostic Error otherwise).
  void Enqueue(std::uint64_t payload, std::uint64_t now);

  /// True if the head value exists and has arrived by cycle `now`.
  bool CanDequeue(std::uint64_t now) const;

  /// Removes and returns the head payload; caller must have checked
  /// CanDequeue (throws a diagnostic Error otherwise).
  std::uint64_t Dequeue(std::uint64_t now);

  int size() const { return static_cast<int>(slots_.size()); }
  int capacity() const { return capacity_; }
  bool empty() const { return slots_.empty(); }

  /// Number of occupants still in flight at cycle `now` (enqueued but not
  /// yet visible to the receiver).
  int InFlight(std::uint64_t now) const;

  /// Arrival cycle of the head value.  Precondition: !empty().  Used by the
  /// fast run loop to jump a dequeue-blocked machine straight to the cycle
  /// where the head becomes visible.
  std::uint64_t HeadArrival() const { return slots_.front().arrival_cycle; }

  /// Lifetime statistics.
  std::uint64_t total_transfers() const { return total_transfers_; }
  int max_occupancy() const { return max_occupancy_; }

  /// Serializes slots and statistics (capacity and latency come
  /// from the machine config).  Defined in sim/snapshot.cpp.
  void SaveState(ByteWriter& w) const;

 private:
  struct Slot {
    std::uint64_t payload;
    std::uint64_t arrival_cycle;
  };

  int capacity_;
  int transfer_latency_;
  std::deque<Slot> slots_;
  std::uint64_t total_transfers_ = 0;
  int max_occupancy_ = 0;
};

}  // namespace fgpar::sim
