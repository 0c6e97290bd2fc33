// Machine state serialization ("fgpar-snap-v5").
//
// Everything mutable travels in the snapshot: the cycle clock, each core's
// architectural and timing state, queue contents (payloads and arrival
// cycles), functional memory, cache tag/LRU state, hit counters, and the
// run-loop bookkeeping.  Everything *immutable* — the program and the
// MachineConfig — is instead folded into an identity hash embedded in the
// stream, so two equal snapshots come from the same program and
// configuration.  Snapshots are write-only: repro bundles compare their
// bytes, and nothing loads them back into a machine.
//
// The decoded program and the trace cache are deliberately absent: both
// are derived from the program and config, and the slow tier, which
// builds no traces, reaches the same state.
#include "sim/machine.hpp"
#include "support/serial.hpp"

namespace fgpar::sim {

namespace {
constexpr const char kSnapshotMagic[] = "fgpar-snap";
constexpr std::uint32_t kSnapshotVersion = 5;

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
  w.U64(c.max_cycles);
  w.U32(static_cast<std::uint32_t>(c.call_stack_limit));
  // force_tier is deliberately NOT hashed: results are bit-identical
  // across run tiers, so snapshots taken under different tiers compare
  // equal (tests/sim_golden_test.cpp, tests/sim_threaded_test.cpp).
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
  SaveStats(w, stats_);
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

void QueueMatrix::SaveState(ByteWriter& w) const {
  w.U64(int_queues_.size());
  for (const HardwareQueue& q : int_queues_) {
    q.SaveState(w);
  }
  for (const HardwareQueue& q : fp_queues_) {
    q.SaveState(w);
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

// ---------------------------------------------------------------------------
// Machine

std::vector<std::uint8_t> Machine::IdentityBytes(const isa::Program& program,
                                                 const MachineConfig& config) {
  ByteWriter w;
  HashProgram(w, program);
  HashConfig(w, config);
  return w.Take();
}

std::uint64_t Machine::IdentityHash() const {
  const std::vector<std::uint8_t> bytes = IdentityBytes(program_, config_);
  return Fnv1a64(bytes.data(), bytes.size());
}

std::vector<std::uint8_t> Machine::Snapshot() const {
  ByteWriter w;
  w.Str(kSnapshotMagic);
  w.U32(kSnapshotVersion);
  w.U64(IdentityHash());
  w.U64(now_);
  w.Bool(core0_halt_recorded_);
  w.U64(core0_halt_cycle_);
  w.U64(cores_.size());
  for (const Core& c : cores_) {
    c.SaveState(w);
  }
  memory_.SaveState(w);
  queues_.SaveState(w);
  return w.Take();
}

}  // namespace fgpar::sim
