#include "sim/memory.hpp"

#include "support/error.hpp"

namespace fgpar::sim {

CacheTagArray::CacheTagArray(int sets, int ways, int line_words)
    : sets_(sets), ways_(ways), line_words_(line_words) {
  FGPAR_CHECK(sets > 0 && (sets & (sets - 1)) == 0);
  FGPAR_CHECK(ways > 0);
  FGPAR_CHECK(line_words > 0 && (line_words & (line_words - 1)) == 0);
  ways_storage_.resize(static_cast<std::size_t>(sets_) * static_cast<std::size_t>(ways_));
}

std::uint64_t CacheTagArray::LineOf(std::uint64_t addr) const {
  return addr / static_cast<std::uint64_t>(line_words_);
}

bool CacheTagArray::Access(std::uint64_t addr) {
  const std::uint64_t line = LineOf(addr);
  const std::uint64_t set = line & static_cast<std::uint64_t>(sets_ - 1);
  const std::uint64_t tag = line >> std::countr_zero(static_cast<unsigned>(sets_));
  Way* base = &ways_storage_[set * static_cast<std::uint64_t>(ways_)];
  ++tick_;
  Way* victim = base;
  for (int w = 0; w < ways_; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == tag) {
      way.lru = tick_;
      return true;
    }
    if (!way.valid) {
      victim = &way;
    } else if (victim->valid && way.lru < victim->lru) {
      victim = &way;
    }
  }
  victim->valid = true;
  victim->tag = tag;
  victim->lru = tick_;
  return false;
}

void CacheTagArray::Invalidate(std::uint64_t addr) {
  const std::uint64_t line = LineOf(addr);
  const std::uint64_t set = line & static_cast<std::uint64_t>(sets_ - 1);
  const std::uint64_t tag = line >> std::countr_zero(static_cast<unsigned>(sets_));
  Way* base = &ways_storage_[set * static_cast<std::uint64_t>(ways_)];
  for (int w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].valid = false;
      return;
    }
  }
}

void CacheTagArray::Clear() {
  for (Way& way : ways_storage_) {
    way = Way{};
  }
  tick_ = 0;
}

MemorySystem::MemorySystem(const CacheConfig& config, int num_cores,
                           std::uint64_t num_words)
    : config_(config),
      words_(num_words, 0),
      l2_(config.l2_sets, config.l2_ways, config.line_words) {
  FGPAR_CHECK(num_cores > 0);
  l1_.reserve(static_cast<std::size_t>(num_cores));
  for (int c = 0; c < num_cores; ++c) {
    l1_.emplace_back(config.l1_sets, config.l1_ways, config.line_words);
  }
}

void MemorySystem::CheckAddr(std::uint64_t addr) const {
  FGPAR_CHECK_MSG(addr < words_.size(),
                  "memory access out of range: " + std::to_string(addr));
}

std::int64_t MemorySystem::ReadI64(std::uint64_t addr) const {
  CheckAddr(addr);
  return static_cast<std::int64_t>(words_[addr]);
}

double MemorySystem::ReadF64(std::uint64_t addr) const {
  CheckAddr(addr);
  return std::bit_cast<double>(words_[addr]);
}

void MemorySystem::WriteI64(std::uint64_t addr, std::int64_t value) {
  CheckAddr(addr);
  words_[addr] = static_cast<std::uint64_t>(value);
}

void MemorySystem::WriteF64(std::uint64_t addr, double value) {
  CheckAddr(addr);
  words_[addr] = std::bit_cast<std::uint64_t>(value);
}

std::uint64_t MemorySystem::ReadRaw(std::uint64_t addr) const {
  CheckAddr(addr);
  return words_[addr];
}

void MemorySystem::WriteRaw(std::uint64_t addr, std::uint64_t value) {
  CheckAddr(addr);
  words_[addr] = value;
}

int MemorySystem::AccessTimed(int core, std::uint64_t addr, bool is_write) {
  CheckAddr(addr);
  FGPAR_CHECK(core >= 0 && static_cast<std::size_t>(core) < l1_.size());
  // Coherence: a write invalidates the line in every other core's L1.
  if (is_write) {
    for (std::size_t c = 0; c < l1_.size(); ++c) {
      if (static_cast<int>(c) != core) {
        l1_[c].Invalidate(addr);
      }
    }
  }
  if (l1_[static_cast<std::size_t>(core)].Access(addr)) {
    ++l1_hits_;
    return config_.l1_latency;
  }
  if (l2_.Access(addr)) {
    ++l2_hits_;
    return config_.l2_latency;
  }
  ++misses_;
  return config_.mem_latency;
}

void MemorySystem::ClearCaches() {
  for (CacheTagArray& l1 : l1_) {
    l1.Clear();
  }
  l2_.Clear();
  l1_hits_ = l2_hits_ = misses_ = 0;
}

}  // namespace fgpar::sim
