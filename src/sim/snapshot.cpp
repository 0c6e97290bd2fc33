// Machine state serialization ("fgpar-snap-v1").
//
// Everything mutable travels in the snapshot: the cycle clock, each core's
// architectural and timing state, queue contents (payloads and arrival
// cycles), functional memory, cache tag/LRU state, hit counters, the fault
// injector's RNG position and counters, and the run-loop bookkeeping that
// makes pause/resume bit-identical to an uninterrupted run.  Everything
// *immutable* — the program and the MachineConfig — is instead folded into
// an identity hash embedded in the stream: Restore refuses to load a
// snapshot into a machine built from a different program or configuration,
// because the state would be silently meaningless there.
//
// The decoded instruction cache is deliberately absent: it is a pure
// function of (program, timing), both covered by the identity, and is
// rebuilt lazily on the first fast-path Run after Restore.
#include <cstring>

#include "sim/machine.hpp"
#include "support/serial.hpp"

namespace fgpar::sim {

namespace {
constexpr const char kSnapshotMagic[] = "fgpar-snap";
constexpr std::uint32_t kSnapshotVersion = 1;

void SaveStats(ByteWriter& w, const CoreStats& s) {
  w.U64(s.instructions);
  w.U64(s.enqueues);
  w.U64(s.dequeues);
  w.U64(s.loads);
  w.U64(s.stores);
  w.U64(s.stall_raw);
  w.U64(s.stall_queue_empty);
  w.U64(s.stall_queue_full);
}

void LoadStats(ByteReader& r, CoreStats& s) {
  s.instructions = r.U64();
  s.enqueues = r.U64();
  s.dequeues = r.U64();
  s.loads = r.U64();
  s.stores = r.U64();
  s.stall_raw = r.U64();
  s.stall_queue_empty = r.U64();
  s.stall_queue_full = r.U64();
}

void HashConfig(ByteWriter& w, const MachineConfig& c) {
  w.U32(static_cast<std::uint32_t>(c.num_cores));
  w.U32(static_cast<std::uint32_t>(c.threads_per_core));
  w.U64(c.memory_words);
  w.U32(static_cast<std::uint32_t>(c.timing.int_alu));
  w.U32(static_cast<std::uint32_t>(c.timing.int_mul));
  w.U32(static_cast<std::uint32_t>(c.timing.int_div));
  w.U32(static_cast<std::uint32_t>(c.timing.fp_alu));
  w.U32(static_cast<std::uint32_t>(c.timing.fp_mul));
  w.U32(static_cast<std::uint32_t>(c.timing.fp_fma));
  w.U32(static_cast<std::uint32_t>(c.timing.fp_div));
  w.U32(static_cast<std::uint32_t>(c.timing.fp_sqrt));
  w.U32(static_cast<std::uint32_t>(c.timing.branch));
  w.U32(static_cast<std::uint32_t>(c.timing.taken_branch_penalty));
  w.U32(static_cast<std::uint32_t>(c.timing.queue_op));
  w.U32(static_cast<std::uint32_t>(c.cache.line_words));
  w.U32(static_cast<std::uint32_t>(c.cache.l1_sets));
  w.U32(static_cast<std::uint32_t>(c.cache.l1_ways));
  w.U32(static_cast<std::uint32_t>(c.cache.l2_sets));
  w.U32(static_cast<std::uint32_t>(c.cache.l2_ways));
  w.U32(static_cast<std::uint32_t>(c.cache.l1_latency));
  w.U32(static_cast<std::uint32_t>(c.cache.l2_latency));
  w.U32(static_cast<std::uint32_t>(c.cache.mem_latency));
  w.U32(static_cast<std::uint32_t>(c.queue.capacity));
  w.U32(static_cast<std::uint32_t>(c.queue.transfer_latency));
  w.U64(c.no_progress_limit);
  w.U64(c.max_cycles);
  w.U32(static_cast<std::uint32_t>(c.call_stack_limit));
  w.U64(c.stall_watchdog_cycles);
  w.U64(c.faults.seed);
  w.F64(c.faults.queue_jitter_prob);
  w.U32(static_cast<std::uint32_t>(c.faults.queue_jitter_max_cycles));
  w.F64(c.faults.queue_reject_prob);
  w.F64(c.faults.payload_flip_prob);
  w.F64(c.faults.mem_fault_prob);
  w.U32(static_cast<std::uint32_t>(c.faults.mem_fault_extra_cycles));
  w.F64(c.faults.core_freeze_prob);
  w.U32(static_cast<std::uint32_t>(c.faults.core_freeze_cycles));
  // force_tier is deliberately NOT hashed: results are bit-identical
  // across run tiers, so a snapshot taken under one tier must restore
  // into a machine pinned to another (tests/sim_threaded_test.cpp).
}

void HashProgram(ByteWriter& w, const isa::Program& program) {
  w.U64(program.code().size());
  for (const isa::Instruction& i : program.code()) {
    w.U8(static_cast<std::uint8_t>(i.op));
    w.U8(i.dst);
    w.U8(i.src1);
    w.U8(i.src2);
    w.I64(i.queue);
    w.I64(i.imm);
    w.F64(i.fimm);
  }
  w.U64(program.symbols().size());
  for (const auto& [name, pc] : program.symbols()) {
    w.Str(name);
    w.I64(pc);
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// Components

void Core::SaveState(ByteWriter& w) const {
  w.Bool(started_);
  w.Bool(halted_);
  w.I64(pc_);
  w.U64(next_issue_);
  for (const std::int64_t v : gpr_) {
    w.I64(v);
  }
  for (const double v : fpr_) {
    w.F64(v);
  }
  for (const std::uint64_t v : gpr_ready_) {
    w.U64(v);
  }
  for (const std::uint64_t v : fpr_ready_) {
    w.U64(v);
  }
  w.U64(call_stack_.size());
  for (const std::int64_t v : call_stack_) {
    w.I64(v);
  }
  w.I64(stalled_deq_remote_);
  w.Bool(stalled_deq_fp_);
  w.I64(stalled_enq_remote_);
  w.Bool(stalled_enq_fp_);
  w.Bool(stalled_enq_injected_);
  SaveStats(w, stats_);
}

void Core::LoadState(ByteReader& r) {
  started_ = r.Bool();
  halted_ = r.Bool();
  pc_ = r.I64();
  next_issue_ = r.U64();
  for (std::int64_t& v : gpr_) {
    v = r.I64();
  }
  for (double& v : fpr_) {
    v = r.F64();
  }
  for (std::uint64_t& v : gpr_ready_) {
    v = r.U64();
  }
  for (std::uint64_t& v : fpr_ready_) {
    v = r.U64();
  }
  const std::uint64_t depth = r.U64();
  FGPAR_CHECK_MSG(depth <= static_cast<std::uint64_t>(config_.call_stack_limit),
                  "corrupt snapshot: call stack depth " + std::to_string(depth) +
                      " exceeds limit");
  call_stack_.clear();
  call_stack_.reserve(static_cast<std::size_t>(depth));
  for (std::uint64_t i = 0; i < depth; ++i) {
    call_stack_.push_back(r.I64());
  }
  stalled_deq_remote_ = static_cast<int>(r.I64());
  stalled_deq_fp_ = r.Bool();
  stalled_enq_remote_ = static_cast<int>(r.I64());
  stalled_enq_fp_ = r.Bool();
  stalled_enq_injected_ = r.Bool();
  LoadStats(r, stats_);
}

void HardwareQueue::SaveState(ByteWriter& w) const {
  w.U64(slots_.size());
  for (const Slot& s : slots_) {
    w.U64(s.payload);
    w.U64(s.arrival_cycle);
  }
  w.U64(total_transfers_);
  w.I64(max_occupancy_);
}

void HardwareQueue::LoadState(ByteReader& r) {
  const std::uint64_t count = r.U64();
  FGPAR_CHECK_MSG(count <= static_cast<std::uint64_t>(capacity_),
                  "corrupt snapshot: queue holds " + std::to_string(count) +
                      " slots, capacity " + std::to_string(capacity_));
  slots_.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t payload = r.U64();
    const std::uint64_t arrival = r.U64();
    slots_.push_back(Slot{payload, arrival});
  }
  total_transfers_ = r.U64();
  max_occupancy_ = static_cast<int>(r.I64());
}

void QueueMatrix::SaveState(ByteWriter& w) const {
  w.U64(int_queues_.size());
  for (const HardwareQueue& q : int_queues_) {
    q.SaveState(w);
  }
  for (const HardwareQueue& q : fp_queues_) {
    q.SaveState(w);
  }
}

void QueueMatrix::LoadState(ByteReader& r) {
  const std::uint64_t count = r.U64();
  FGPAR_CHECK_MSG(count == int_queues_.size(),
                  "corrupt snapshot: queue matrix has " + std::to_string(count) +
                      " queues, machine has " +
                      std::to_string(int_queues_.size()));
  for (HardwareQueue& q : int_queues_) {
    q.LoadState(r);
  }
  for (HardwareQueue& q : fp_queues_) {
    q.LoadState(r);
  }
}

void CacheTagArray::SaveState(ByteWriter& w) const {
  w.U64(tick_);
  w.U64(ways_storage_.size());
  for (const Way& way : ways_storage_) {
    w.U64(way.tag);
    w.Bool(way.valid);
    w.U64(way.lru);
  }
}

void CacheTagArray::LoadState(ByteReader& r) {
  tick_ = r.U64();
  const std::uint64_t count = r.U64();
  FGPAR_CHECK_MSG(count == ways_storage_.size(),
                  "corrupt snapshot: tag array has " + std::to_string(count) +
                      " ways, machine has " +
                      std::to_string(ways_storage_.size()));
  for (Way& way : ways_storage_) {
    way.tag = r.U64();
    way.valid = r.Bool();
    way.lru = r.U64();
  }
}

void MemorySystem::SaveState(ByteWriter& w) const {
  w.U64Vec(words_);
  w.U64(l1_.size());
  for (const CacheTagArray& l1 : l1_) {
    l1.SaveState(w);
  }
  l2_.SaveState(w);
  w.U64(l1_hits_);
  w.U64(l2_hits_);
  w.U64(misses_);
}

void MemorySystem::LoadState(ByteReader& r) {
  std::vector<std::uint64_t> words = r.U64Vec();
  FGPAR_CHECK_MSG(words.size() == words_.size(),
                  "corrupt snapshot: memory has " + std::to_string(words.size()) +
                      " words, machine has " + std::to_string(words_.size()));
  words_ = std::move(words);
  const std::uint64_t l1_count = r.U64();
  FGPAR_CHECK_MSG(l1_count == l1_.size(),
                  "corrupt snapshot: " + std::to_string(l1_count) +
                      " L1 arrays, machine has " + std::to_string(l1_.size()));
  for (CacheTagArray& l1 : l1_) {
    l1.LoadState(r);
  }
  l2_.LoadState(r);
  l1_hits_ = r.U64();
  l2_hits_ = r.U64();
  misses_ = r.U64();
}

void FaultInjector::SaveState(ByteWriter& w) const {
  for (const std::uint64_t word : rng_.state()) {
    w.U64(word);
  }
  w.U64(stats_.latency_jitters);
  w.U64(stats_.jitter_cycles_added);
  w.U64(stats_.enqueue_rejects);
  w.U64(stats_.payload_flips);
  w.U64(stats_.mem_inflations);
  w.U64(stats_.core_freezes);
}

void FaultInjector::LoadState(ByteReader& r) {
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) {
    word = r.U64();
  }
  rng_.set_state(state);
  stats_.latency_jitters = r.U64();
  stats_.jitter_cycles_added = r.U64();
  stats_.enqueue_rejects = r.U64();
  stats_.payload_flips = r.U64();
  stats_.mem_inflations = r.U64();
  stats_.core_freezes = r.U64();
}

// ---------------------------------------------------------------------------
// Machine

std::uint64_t Machine::IdentityHash() const {
  ByteWriter w;
  HashProgram(w, program_);
  HashConfig(w, config_);
  return Fnv1a64(w.bytes().data(), w.bytes().size());
}

std::vector<std::uint8_t> Machine::Snapshot() const {
  ByteWriter w;
  w.Str(kSnapshotMagic);
  w.U32(kSnapshotVersion);
  w.U64(IdentityHash());
  w.U64(now_);
  w.Bool(paused_);
  w.U64(last_issue_cycle_);
  w.Bool(core0_halt_recorded_);
  w.U64(core0_halt_cycle_);
  w.U64Vec(frozen_until_);
  w.U64(cores_.size());
  for (const Core& c : cores_) {
    c.SaveState(w);
  }
  memory_.SaveState(w);
  queues_.SaveState(w);
  injector_.SaveState(w);
  return w.Take();
}

void Machine::Restore(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const std::string magic = r.Str();
  FGPAR_CHECK_MSG(magic == kSnapshotMagic,
                  "not a machine snapshot (bad magic '" + magic + "')");
  const std::uint32_t version = r.U32();
  FGPAR_CHECK_MSG(version == kSnapshotVersion,
                  "unsupported snapshot version " + std::to_string(version) +
                      " (this build reads version " +
                      std::to_string(kSnapshotVersion) + ")");
  const std::uint64_t identity = r.U64();
  const std::uint64_t expected = IdentityHash();
  FGPAR_CHECK_MSG(identity == expected,
                  "snapshot identity mismatch: snapshot was taken from a "
                  "different program or machine configuration (snapshot " +
                      std::to_string(identity) + ", machine " +
                      std::to_string(expected) + ")");
  now_ = r.U64();
  paused_ = r.Bool();
  last_issue_cycle_ = r.U64();
  core0_halt_recorded_ = r.Bool();
  core0_halt_cycle_ = r.U64();
  std::vector<std::uint64_t> frozen = r.U64Vec();
  FGPAR_CHECK_MSG(frozen.size() == frozen_until_.size(),
                  "corrupt snapshot: frozen-core table size mismatch");
  frozen_until_ = std::move(frozen);
  const std::uint64_t core_count = r.U64();
  FGPAR_CHECK_MSG(core_count == cores_.size(),
                  "corrupt snapshot: " + std::to_string(core_count) +
                      " cores, machine has " + std::to_string(cores_.size()));
  for (Core& c : cores_) {
    c.LoadState(r);
  }
  memory_.LoadState(r);
  queues_.LoadState(r);
  injector_.LoadState(r);
  r.CheckFullyConsumed();
  // The trace cache is derived state keyed by heat observed
  // during *this* machine's execution history, which the restore just
  // replaced: drop it (and its diagnostics) wholesale and let the restored
  // run re-profile.  Keeping stale traces would still be functionally
  // correct — translation inputs are covered by the identity hash — but
  // conservative invalidation keeps the contract simple and testable.
  threaded_.reset();
  threaded_stats_ = ThreadedStats{};
}

}  // namespace fgpar::sim
