#include "sim/core.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "isa/disasm.hpp"
#include "support/error.hpp"

namespace fgpar::sim {

using isa::Opcode;

QueueMatrix::QueueMatrix(int num_cores, const QueueConfig& config)
    : num_cores_(num_cores) {
  FGPAR_CHECK(num_cores >= 1);
  FGPAR_CHECK_MSG(config.transfer_latency >= 1,
                  "transfer latency must be >= 1 cycle for deterministic "
                  "intra-cycle ordering");
  const int n = num_cores * num_cores;
  int_queues_.reserve(static_cast<std::size_t>(n));
  fp_queues_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    int_queues_.emplace_back(config.capacity, config.transfer_latency);
    fp_queues_.emplace_back(config.capacity, config.transfer_latency);
  }
}

int QueueMatrix::Index(int src, int dst) const {
  FGPAR_CHECK_MSG(src >= 0 && src < num_cores_ && dst >= 0 && dst < num_cores_,
                  "queue core index out of range");
  FGPAR_CHECK_MSG(src != dst, "no self-queue exists");
  return src * num_cores_ + dst;
}

HardwareQueue& QueueMatrix::IntQueue(int src, int dst) {
  return int_queues_[static_cast<std::size_t>(Index(src, dst))];
}

HardwareQueue& QueueMatrix::FpQueue(int src, int dst) {
  return fp_queues_[static_cast<std::size_t>(Index(src, dst))];
}

const HardwareQueue& QueueMatrix::IntQueue(int src, int dst) const {
  return int_queues_[static_cast<std::size_t>(const_cast<QueueMatrix*>(this)->Index(src, dst))];
}

const HardwareQueue& QueueMatrix::FpQueue(int src, int dst) const {
  return fp_queues_[static_cast<std::size_t>(const_cast<QueueMatrix*>(this)->Index(src, dst))];
}

int QueueMatrix::UsedChannelCount() const {
  int used = 0;
  for (int src = 0; src < num_cores_; ++src) {
    for (int dst = 0; dst < num_cores_; ++dst) {
      if (src == dst) {
        continue;
      }
      const std::size_t i = static_cast<std::size_t>(src * num_cores_ + dst);
      if (int_queues_[i].total_transfers() + fp_queues_[i].total_transfers() > 0) {
        ++used;
      }
    }
  }
  return used;
}

int QueueMatrix::MaxOccupancy() const {
  int max_occupancy = 0;
  for (const HardwareQueue& q : int_queues_) {
    max_occupancy = std::max(max_occupancy, q.max_occupancy());
  }
  for (const HardwareQueue& q : fp_queues_) {
    max_occupancy = std::max(max_occupancy, q.max_occupancy());
  }
  return max_occupancy;
}

std::uint64_t QueueMatrix::TotalTransfers() const {
  std::uint64_t total = 0;
  for (const HardwareQueue& q : int_queues_) {
    total += q.total_transfers();
  }
  for (const HardwareQueue& q : fp_queues_) {
    total += q.total_transfers();
  }
  return total;
}

Core::Core(int id, const MachineConfig& config, int physical_core)
    : id_(id),
      physical_core_(physical_core < 0 ? id : physical_core),
      config_(config) {}

void Core::Start(std::int64_t pc) {
  started_ = true;
  halted_ = false;
  pc_ = pc;
  stalled_deq_remote_ = -1;
  stalled_enq_remote_ = -1;
}

bool Core::stalled_on_deq(int& remote, bool& is_fp) const {
  if (stalled_deq_remote_ < 0) {
    return false;
  }
  remote = stalled_deq_remote_;
  is_fp = stalled_deq_fp_;
  return true;
}

bool Core::stalled_on_enq(int& remote, bool& is_fp) const {
  if (stalled_enq_remote_ < 0) {
    return false;
  }
  remote = stalled_enq_remote_;
  is_fp = stalled_enq_fp_;
  return true;
}

std::int64_t Core::gpr(int index) const {
  FGPAR_CHECK(index >= 0 && index < isa::kNumGpr);
  return gpr_[static_cast<std::size_t>(index)];
}

double Core::fpr(int index) const {
  FGPAR_CHECK(index >= 0 && index < isa::kNumFpr);
  return fpr_[static_cast<std::size_t>(index)];
}

void Core::set_gpr(int index, std::int64_t value) {
  FGPAR_CHECK(index >= 0 && index < isa::kNumGpr);
  gpr_[static_cast<std::size_t>(index)] = value;
}

void Core::set_fpr(int index, double value) {
  FGPAR_CHECK(index >= 0 && index < isa::kNumFpr);
  fpr_[static_cast<std::size_t>(index)] = value;
}

void Core::Execute(std::uint64_t now, const DecodedInstruction& instr,
                   std::uint64_t taken_branch_busy, MemorySystem& memory,
                   QueueMatrix& queues) {
  const CoreTiming& t = config_.timing;
  std::int64_t next_pc = pc_ + 1;
  std::uint64_t issue_busy = 1;  // default: fully pipelined, 1 instr/cycle
  bool taken_branch = false;

  auto set_g = [&](std::uint8_t r, std::int64_t v, int latency) {
    gpr_[r] = v;
    gpr_ready_[r] = now + static_cast<std::uint64_t>(latency);
  };
  auto set_f = [&](std::uint8_t r, double v, int latency) {
    fpr_[r] = v;
    fpr_ready_[r] = now + static_cast<std::uint64_t>(latency);
  };
  auto g = [&](std::uint8_t r) { return gpr_[r]; };
  auto f = [&](std::uint8_t r) { return fpr_[r]; };
  const int lat = instr.result_latency;

  // Integer add/sub/mul wrap (two's complement), like the modeled hardware;
  // computing through uint64 keeps the wrap defined in C++.
  auto wrap = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  auto u = [&g](std::uint8_t r) { return static_cast<std::uint64_t>(g(r)); };

  switch (instr.op) {
    case Opcode::kAddI:
      set_g(instr.dst, wrap(u(instr.src1) + u(instr.src2)), lat);
      break;
    case Opcode::kSubI:
      set_g(instr.dst, wrap(u(instr.src1) - u(instr.src2)), lat);
      break;
    case Opcode::kMulI:
      set_g(instr.dst, wrap(u(instr.src1) * u(instr.src2)), lat);
      break;
    case Opcode::kDivI:
      FGPAR_CHECK_MSG(g(instr.src2) != 0, "integer divide by zero");
      FGPAR_CHECK_MSG(g(instr.src1) != INT64_MIN || g(instr.src2) != -1,
                      "integer divide overflow");
      set_g(instr.dst, g(instr.src1) / g(instr.src2), lat);
      break;
    case Opcode::kRemI:
      FGPAR_CHECK_MSG(g(instr.src2) != 0, "integer remainder by zero");
      FGPAR_CHECK_MSG(g(instr.src1) != INT64_MIN || g(instr.src2) != -1,
                      "integer remainder overflow");
      set_g(instr.dst, g(instr.src1) % g(instr.src2), lat);
      break;
    case Opcode::kAndI: set_g(instr.dst, g(instr.src1) & g(instr.src2), lat); break;
    case Opcode::kOrI: set_g(instr.dst, g(instr.src1) | g(instr.src2), lat); break;
    case Opcode::kXorI: set_g(instr.dst, g(instr.src1) ^ g(instr.src2), lat); break;
    case Opcode::kShlI:
      set_g(instr.dst,
            static_cast<std::int64_t>(static_cast<std::uint64_t>(g(instr.src1))
                                      << (g(instr.src2) & 63)),
            lat);
      break;
    case Opcode::kShrI: set_g(instr.dst, g(instr.src1) >> (g(instr.src2) & 63), lat); break;
    case Opcode::kMinI: set_g(instr.dst, std::min(g(instr.src1), g(instr.src2)), lat); break;
    case Opcode::kMaxI: set_g(instr.dst, std::max(g(instr.src1), g(instr.src2)), lat); break;
    case Opcode::kLiI: set_g(instr.dst, instr.imm, lat); break;
    case Opcode::kMovI: set_g(instr.dst, g(instr.src1), lat); break;
    case Opcode::kCeqI: set_g(instr.dst, g(instr.src1) == g(instr.src2) ? 1 : 0, lat); break;
    case Opcode::kCneI: set_g(instr.dst, g(instr.src1) != g(instr.src2) ? 1 : 0, lat); break;
    case Opcode::kCltI: set_g(instr.dst, g(instr.src1) < g(instr.src2) ? 1 : 0, lat); break;
    case Opcode::kCleI: set_g(instr.dst, g(instr.src1) <= g(instr.src2) ? 1 : 0, lat); break;

    case Opcode::kAddF: set_f(instr.dst, f(instr.src1) + f(instr.src2), lat); break;
    case Opcode::kSubF: set_f(instr.dst, f(instr.src1) - f(instr.src2), lat); break;
    case Opcode::kMulF: set_f(instr.dst, f(instr.src1) * f(instr.src2), lat); break;
    case Opcode::kDivF: set_f(instr.dst, f(instr.src1) / f(instr.src2), lat); break;
    case Opcode::kNegF: set_f(instr.dst, -f(instr.src1), lat); break;
    case Opcode::kAbsF: set_f(instr.dst, std::fabs(f(instr.src1)), lat); break;
    case Opcode::kSqrtF: set_f(instr.dst, std::sqrt(f(instr.src1)), lat); break;
    case Opcode::kMinF: set_f(instr.dst, std::fmin(f(instr.src1), f(instr.src2)), lat); break;
    case Opcode::kMaxF: set_f(instr.dst, std::fmax(f(instr.src1), f(instr.src2)), lat); break;
    case Opcode::kFmaF:
      set_f(instr.dst, f(instr.src1) * f(instr.src2) + f(instr.dst), lat);
      break;
    case Opcode::kLiF: set_f(instr.dst, instr.fimm, lat); break;
    case Opcode::kMovF: set_f(instr.dst, f(instr.src1), lat); break;
    case Opcode::kItoF: set_f(instr.dst, static_cast<double>(g(instr.src1)), lat); break;
    case Opcode::kFtoI: set_g(instr.dst, static_cast<std::int64_t>(f(instr.src1)), lat); break;
    case Opcode::kCeqF: set_g(instr.dst, f(instr.src1) == f(instr.src2) ? 1 : 0, lat); break;
    case Opcode::kCltF: set_g(instr.dst, f(instr.src1) < f(instr.src2) ? 1 : 0, lat); break;
    case Opcode::kCleF: set_g(instr.dst, f(instr.src1) <= f(instr.src2) ? 1 : 0, lat); break;

    case Opcode::kLdI: case Opcode::kLdIX: case Opcode::kLdF: case Opcode::kLdFX: {
      const std::int64_t offset =
          (instr.op == Opcode::kLdIX || instr.op == Opcode::kLdFX) ? g(instr.src2)
                                                                   : instr.imm;
      const std::uint64_t addr = static_cast<std::uint64_t>(g(instr.src1) + offset);
      const int mem_lat = memory.AccessTimed(physical_core_, addr, /*is_write=*/false);
      if (instr.op == Opcode::kLdI || instr.op == Opcode::kLdIX) {
        set_g(instr.dst, memory.ReadI64(addr), mem_lat);
      } else {
        set_f(instr.dst, memory.ReadF64(addr), mem_lat);
      }
      ++stats_.loads;
      break;
    }
    case Opcode::kStI: case Opcode::kStIX: case Opcode::kStF: case Opcode::kStFX: {
      const std::int64_t offset =
          (instr.op == Opcode::kStIX || instr.op == Opcode::kStFX) ? g(instr.src2)
                                                                   : instr.imm;
      const std::uint64_t addr = static_cast<std::uint64_t>(g(instr.src1) + offset);
      // Stores retire through a store buffer: they update cache state but do
      // not stall the pipeline beyond their issue cycle.
      memory.AccessTimed(physical_core_, addr, /*is_write=*/true);
      if (instr.op == Opcode::kStI || instr.op == Opcode::kStIX) {
        memory.WriteI64(addr, g(instr.dst));
      } else {
        memory.WriteF64(addr, f(instr.dst));
      }
      ++stats_.stores;
      break;
    }

    case Opcode::kJmp:
      next_pc = instr.imm;
      taken_branch = true;
      break;
    case Opcode::kBz:
      if (g(instr.src1) == 0) {
        next_pc = instr.imm;
        taken_branch = true;
      }
      break;
    case Opcode::kBnz:
      if (g(instr.src1) != 0) {
        next_pc = instr.imm;
        taken_branch = true;
      }
      break;
    case Opcode::kCall:
      FGPAR_CHECK_MSG(static_cast<int>(call_stack_.size()) < config_.call_stack_limit,
                      "call stack overflow");
      call_stack_.push_back(pc_ + 1);
      next_pc = instr.imm;
      taken_branch = true;
      break;
    case Opcode::kCallR:
      FGPAR_CHECK_MSG(static_cast<int>(call_stack_.size()) < config_.call_stack_limit,
                      "call stack overflow");
      call_stack_.push_back(pc_ + 1);
      next_pc = g(instr.src1);
      taken_branch = true;
      break;
    case Opcode::kRet:
      FGPAR_CHECK_MSG(!call_stack_.empty(), "return with empty call stack");
      next_pc = call_stack_.back();
      call_stack_.pop_back();
      taken_branch = true;
      break;
    case Opcode::kHalt:
      halted_ = true;
      break;
    case Opcode::kNop:
      break;

    case Opcode::kEnqI: {
      queues.IntQueue(id_, instr.queue)
          .Enqueue(static_cast<std::uint64_t>(g(instr.src1)), now);
      ++stats_.enqueues;
      break;
    }
    case Opcode::kEnqF: {
      queues.FpQueue(id_, instr.queue)
          .Enqueue(std::bit_cast<std::uint64_t>(f(instr.src1)), now);
      ++stats_.enqueues;
      break;
    }
    case Opcode::kDeqI: {
      const std::uint64_t payload = queues.IntQueue(instr.queue, id_).Dequeue(now);
      set_g(instr.dst, static_cast<std::int64_t>(payload), t.queue_op);
      ++stats_.dequeues;
      break;
    }
    case Opcode::kDeqF: {
      const std::uint64_t payload = queues.FpQueue(instr.queue, id_).Dequeue(now);
      set_f(instr.dst, std::bit_cast<double>(payload), t.queue_op);
      ++stats_.dequeues;
      break;
    }
  }

  if (instr.unpipelined_busy != 0) {
    issue_busy = static_cast<std::uint64_t>(instr.unpipelined_busy);
  } else if (taken_branch) {
    issue_busy = taken_branch_busy;
  }
  next_issue_ = now + issue_busy;
  pc_ = next_pc;
}

StepOutcome Core::Step(std::uint64_t now, const DecodedProgram& program,
                       MemorySystem& memory, QueueMatrix& queues) {
  stalled_deq_remote_ = -1;
  stalled_enq_remote_ = -1;
  const DecodedInstruction& di = program.at(pc_);

  // Register scoreboard over the predecoded source lists.  The wait
  // depends only on this core's own state, so it is safe to fast-forward
  // the issue stage to the ready cycle.
  std::uint64_t ready = 0;
  for (int i = 0; i < di.num_gpr_srcs; ++i) {
    ready = std::max(ready, gpr_ready_[di.gpr_srcs[i]]);
  }
  for (int i = 0; i < di.num_fpr_srcs; ++i) {
    ready = std::max(ready, fpr_ready_[di.fpr_srcs[i]]);
  }
  if (ready > now) {
    stats_.stall_raw += ready - now;
    next_issue_ = ready;
    return StepOutcome::kPipelineBusy;
  }

  // Queue readiness must be evaluated cycle-by-cycle, because it depends on
  // other cores.
  if (di.is_enqueue) {
    HardwareQueue& q = di.is_fp_queue ? queues.FpQueue(id_, di.queue)
                                      : queues.IntQueue(id_, di.queue);
    if (!q.CanEnqueue()) {
      stalled_enq_remote_ = di.queue;
      stalled_enq_fp_ = di.is_fp_queue;
      return StepOutcome::kStallEnqFull;
    }
  } else if (di.is_dequeue) {
    HardwareQueue& q = di.is_fp_queue ? queues.FpQueue(di.queue, id_)
                                      : queues.IntQueue(di.queue, id_);
    if (!q.CanDequeue(now)) {
      stalled_deq_remote_ = di.queue;
      stalled_deq_fp_ = di.is_fp_queue;
      return StepOutcome::kStallDeqEmpty;
    }
  }

  Execute(now, di, program.taken_branch_busy(), memory, queues);
  ++stats_.instructions;
  return StepOutcome::kIssued;
}

std::string Core::Describe(const isa::Program& program) const {
  std::ostringstream os;
  os << "core " << id_ << ": ";
  if (!started_) {
    os << "idle";
  } else if (halted_) {
    os << "halted";
  } else {
    os << "pc=" << pc_ << " [" << isa::Disassemble(program.at(pc_)) << "]";
    if (!program.CommentAt(pc_).empty()) {
      os << " ; " << program.CommentAt(pc_);
    }
  }
  return os.str();
}

}  // namespace fgpar::sim
