// Shared memory with a two-level cache timing model.
//
// Functional state is a flat word-addressed array shared by all cores;
// loads/stores complete functionally at issue.  Timing is layered on top:
// each access consults a per-core L1 and a shared L2 and returns the load
// latency.  Writes allocate in L1 and invalidate the line in all other
// cores' L1s (a simple invalidation-based coherence model; invalidation
// traffic itself is not timed).  The model's purpose is what the paper's
// cost model needs — realistic *relative* hit/miss latencies and
// profile-feedback miss statistics — not microarchitectural fidelity.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/config.hpp"

namespace fgpar {
class ByteWriter;
}  // namespace fgpar

namespace fgpar::sim {

/// Set-associative tag array with LRU replacement (timing state only).
class CacheTagArray {
 public:
  CacheTagArray(int sets, int ways, int line_words);

  /// Looks up `addr`; on miss, fills the line (evicting LRU).  Returns true
  /// on hit.
  bool Access(std::uint64_t addr);

  /// Invalidates the line containing `addr` if present.
  void Invalidate(std::uint64_t addr);

  void Clear();

  /// Serializes tags, validity, and LRU state (geometry comes
  /// from the machine config).  Defined in sim/snapshot.cpp.
  void SaveState(ByteWriter& w) const;

 private:
  struct Way {
    std::uint64_t tag = 0;
    bool valid = false;
    std::uint64_t lru = 0;
  };

  std::uint64_t LineOf(std::uint64_t addr) const;

  int sets_;
  int ways_;
  int line_words_;
  std::uint64_t tick_ = 0;
  std::vector<Way> ways_storage_;  // sets_ x ways_
};

/// The shared memory system: functional words + cache timing.
class MemorySystem {
 public:
  MemorySystem(const CacheConfig& config, int num_cores, std::uint64_t num_words);

  // ---- functional access (no timing) ----
  std::int64_t ReadI64(std::uint64_t addr) const;
  double ReadF64(std::uint64_t addr) const;
  void WriteI64(std::uint64_t addr, std::int64_t value);
  void WriteF64(std::uint64_t addr, double value);
  std::uint64_t ReadRaw(std::uint64_t addr) const;
  void WriteRaw(std::uint64_t addr, std::uint64_t value);
  std::uint64_t num_words() const { return words_.size(); }

  /// Snapshot of the full functional state (for golden comparisons).
  const std::vector<std::uint64_t>& words() const { return words_; }

  // ---- timed access ----
  /// Models a load/store by core `core` at `addr`; returns the latency in
  /// cycles and updates cache state.
  int AccessTimed(int core, std::uint64_t addr, bool is_write);

  /// Resets cache timing state (not functional memory).
  void ClearCaches();

  // ---- statistics ----
  std::uint64_t l1_hits() const { return l1_hits_; }
  std::uint64_t l2_hits() const { return l2_hits_; }
  std::uint64_t misses() const { return misses_; }

  /// Serializes functional words, cache timing state, and hit counters.
  /// Defined in sim/snapshot.cpp.
  void SaveState(ByteWriter& w) const;

 private:
  void CheckAddr(std::uint64_t addr) const;

  CacheConfig config_;
  std::vector<std::uint64_t> words_;
  std::vector<CacheTagArray> l1_;  // one per core
  CacheTagArray l2_;
  std::uint64_t l1_hits_ = 0;
  std::uint64_t l2_hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace fgpar::sim
