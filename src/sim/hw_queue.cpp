#include "sim/hw_queue.hpp"

#include <string>

#include "support/error.hpp"

namespace fgpar::sim {

HardwareQueue::HardwareQueue(int capacity, int transfer_latency)
    : capacity_(capacity), transfer_latency_(transfer_latency) {
  FGPAR_CHECK(capacity > 0);
  FGPAR_CHECK(transfer_latency >= 0);
}

bool HardwareQueue::CanEnqueue() const {
  return static_cast<int>(slots_.size()) < capacity_;
}

int HardwareQueue::InFlight(std::uint64_t now) const {
  int in_flight = 0;
  for (const Slot& slot : slots_) {
    if (slot.arrival_cycle > now) {
      ++in_flight;
    }
  }
  return in_flight;
}

void HardwareQueue::Enqueue(std::uint64_t payload, std::uint64_t now) {
  FGPAR_CHECK_MSG(CanEnqueue(),
                  "enqueue into full hardware queue at cycle " +
                      std::to_string(now) + " (capacity " +
                      std::to_string(capacity_) + ", occupancy " +
                      std::to_string(slots_.size()) + ", " +
                      std::to_string(InFlight(now)) + " in flight)");
  slots_.push_back(
      Slot{payload, now + static_cast<std::uint64_t>(transfer_latency_)});
  max_occupancy_ = std::max(max_occupancy_, static_cast<int>(slots_.size()));
}

bool HardwareQueue::CanDequeue(std::uint64_t now) const {
  return !slots_.empty() && slots_.front().arrival_cycle <= now;
}

std::uint64_t HardwareQueue::Dequeue(std::uint64_t now) {
  if (slots_.empty()) {
    FGPAR_CHECK_MSG(false, "dequeue from empty hardware queue at cycle " +
                               std::to_string(now));
  }
  FGPAR_CHECK_MSG(slots_.front().arrival_cycle <= now,
                  "dequeue before arrival: head value arrives at cycle " +
                      std::to_string(slots_.front().arrival_cycle) +
                      ", now " + std::to_string(now));
  const std::uint64_t payload = slots_.front().payload;
  slots_.pop_front();
  ++total_transfers_;
  return payload;
}

}  // namespace fgpar::sim
