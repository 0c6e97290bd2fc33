#include "sim/machine.hpp"

#include <algorithm>

#include <limits>
#include <sstream>

namespace fgpar::sim {

namespace {

/// The cycle of an event that never comes: no next event, no queue stall.
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

int PhysicalCoreCount(const MachineConfig& config) {
  FGPAR_CHECK(config.threads_per_core >= 1);
  return (config.num_cores + config.threads_per_core - 1) / config.threads_per_core;
}
}  // namespace

std::string StallReport::Describe() const {
  std::ostringstream os;
  os << "hardware queue deadlock at cycle " << cycle << ":\n";
  for (const CoreState& c : cores) {
    os << "  " << c.detail;
    switch (c.wait) {
      case CoreState::Wait::kDeqEmpty:
        os << " -- waiting on " << (c.queue_is_fp ? "fp" : "int") << " queue "
           << c.remote_core << "->" << c.core << " (occupancy "
           << c.queue_occupancy << ", " << c.queue_in_flight << " in flight)";
        break;
      case CoreState::Wait::kEnqFull:
        os << " -- blocked enqueuing to " << (c.queue_is_fp ? "fp" : "int")
           << " queue " << c.core << "->" << c.remote_core << " (occupancy "
           << c.queue_occupancy << ", " << c.queue_in_flight << " in flight)";
        break;
      case CoreState::Wait::kNone:
        break;
    }
    os << '\n';
  }
  os << "queue occupancy:\n";
  for (const QueueState& q : queues) {
    os << "  " << q.src << "->" << q.dst << ": int=" << q.int_occupancy
       << " fp=" << q.fp_occupancy << " (in flight int=" << q.int_in_flight
       << " fp=" << q.fp_in_flight << ")\n";
  }
  return os.str();
}

Machine::Machine(MachineConfig config, isa::Program program)
    : config_(config),
      program_(std::move(program)),
      decoded_(program_, config_.timing),
      memory_(config.cache, PhysicalCoreCount(config), config.memory_words),
      queues_(config.num_cores, config.queue) {
  FGPAR_CHECK(config_.num_cores >= 1);
  cores_.reserve(static_cast<std::size_t>(config_.num_cores));
  for (int c = 0; c < config_.num_cores; ++c) {
    cores_.emplace_back(c, config_, c / config_.threads_per_core);
  }
}

Core& Machine::core(int index) {
  FGPAR_CHECK(index >= 0 && index < config_.num_cores);
  return cores_[static_cast<std::size_t>(index)];
}

const Core& Machine::core(int index) const {
  FGPAR_CHECK(index >= 0 && index < config_.num_cores);
  return cores_[static_cast<std::size_t>(index)];
}

void Machine::StartCoreAt(int core_index, const std::string& entry) {
  StartCoreAtPc(core_index, program_.EntryOf(entry));
}

void Machine::StartCoreAtPc(int core_index, std::int64_t pc) {
  core(core_index).Start(pc);
}

int Machine::RunningCores() const {
  int running = 0;
  for (const Core& c : cores_) {
    if (c.started() && !c.halted()) {
      ++running;
    }
  }
  return running;
}

RunResult Machine::Run() {
  last_issue_cycle_ = now_;
  core0_halt_recorded_ = false;
  core0_halt_cycle_ = 0;
  if (telemetry_ != nullptr) {
    open_stall_cause_.assign(cores_.size(), telemetry::StallCause::kNone);
    open_stall_begin_.assign(cores_.size(), 0);
  }
  if (resolved_tier() == RunTier::kSlow) {
    return RunSlow();
  }
  return config_.num_cores == 1 ? RunFast<true>() : RunFast<false>();
}

RunTier Machine::resolved_tier() const {
  // A sink always wins: the reference loop is the only one that carries
  // the sim-event sink.  It is also the only one with SMT slot arbitration,
  // which rotates the core order each cycle.
  if (telemetry_ != nullptr || config_.threads_per_core > 1) {
    return RunTier::kSlow;
  }
  return config_.force_tier;
}

RunResult Machine::FinishResult() const {
  RunResult result;
  result.cycles = now_;
  result.core0_halt_cycle = core0_halt_recorded_ ? core0_halt_cycle_ : now_;
  for (const Core& c : cores_) {
    result.instructions += c.stats().instructions;
  }
  return result;
}

void Machine::StopAtCycleLimit() {
  TelemetryCloseStalls();  // the terminal stall must appear in traces
  throw CycleBudgetError("simulation reached its cycle limit (max_cycles = " +
                         std::to_string(config_.max_cycles) + ")");
}

RunResult Machine::RunSlow() {
  int running = RunningCores();

  // Each core's outcome in the current cycle.  Cleared once per Run, not
  // once per cycle: a slot is rewritten whenever its core is evaluated, and
  // stale slots are only read by the skipped-stall charge, which runs when
  // *no* core issued — a cycle in which every active core was evaluated.
  std::vector<StepOutcome> outcomes(cores_.size(), StepOutcome::kIdle);
  const int tpc = config_.threads_per_core;
  const int physical = (config_.num_cores + tpc - 1) / tpc;

  while (running > 0) {
    if (now_ >= config_.max_cycles) {
      StopAtCycleLimit();
    }

    bool issued_any = false;
    for (int p = 0; p < physical; ++p) {
      // SMT arbitration: the hardware threads of one physical core share a
      // single issue slot per cycle, round-robin priority.
      const int base = p * tpc;
      const int count = std::min(tpc, config_.num_cores - base);
      const int start = static_cast<int>(now_ % static_cast<std::uint64_t>(count));
      for (int k = 0; k < count; ++k) {
        const std::size_t c = static_cast<std::size_t>(base + (start + k) % count);
        Core& core = cores_[c];
        if (!core.started() || core.halted()) {
          continue;  // outcome slot stays non-stall forever; never re-read
        }
        if (core.next_issue_cycle() > now_) {
          outcomes[c] = StepOutcome::kPipelineBusy;
          TelemetryStall(c, telemetry::StallCause::kPipeline);
          continue;
        }
        const std::int64_t pc_before = core.pc();
        outcomes[c] = core.Step(now_, decoded_, memory_, queues_);
        switch (outcomes[c]) {
          case StepOutcome::kIssued:
            issued_any = true;
            if (core.halted()) {
              --running;
              if (c == 0 && !core0_halt_recorded_) {
                core0_halt_recorded_ = true;
                core0_halt_cycle_ = now_;
              }
            }
            if (telemetry_ != nullptr) {
              TelemetryStallEnd(c);
              TelemetryIssue(c, pc_before);
            }
            break;
          case StepOutcome::kStallDeqEmpty:
            ++core.mutable_stats().stall_queue_empty;
            TelemetryStall(c, telemetry::StallCause::kQueueEmpty);
            break;
          case StepOutcome::kStallEnqFull:
            ++core.mutable_stats().stall_queue_full;
            TelemetryStall(c, telemetry::StallCause::kQueueFull);
            break;
          case StepOutcome::kPipelineBusy:
            TelemetryStall(c, telemetry::StallCause::kPipeline);
            break;
          default:
            break;
        }
        if (outcomes[c] == StepOutcome::kIssued) {
          break;  // SMT: the physical core's single issue slot is taken
        }
      }
    }

    if (issued_any) {
      last_issue_cycle_ = now_;
      ++now_;
      continue;
    }
    // No core issued: fast-forward to the next event.
    std::uint64_t next_event = kNever;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      const Core& core = cores_[c];
      if (!core.started() || core.halted()) {
        continue;
      }
      if (core.next_issue_cycle() > now_) {
        next_event = std::min(next_event, core.next_issue_cycle());
        continue;
      }
      int remote = -1;
      bool is_fp = false;
      if (core.stalled_on_deq(remote, is_fp)) {
        const HardwareQueue& q = is_fp ? queues_.FpQueue(remote, core.id())
                                       : queues_.IntQueue(remote, core.id());
        // If a value is in flight, its arrival is the next event for this
        // core.  CanDequeue(now) was false, so any head arrives strictly
        // later; we conservatively advance one cycle at a time only when a
        // value is in flight but not yet visible.
        if (!q.empty()) {
          next_event = std::min(next_event, now_ + 1);
        }
      }
      // Cores stalled on a full queue (or an empty queue with nothing in
      // flight) depend on another core's progress; they contribute no event
      // of their own.
    }

    if (next_event == kNever) {
      TelemetryCloseStalls();  // the terminal stall must appear in traces
      throw DeadlockError(BuildStallReport());
    }
    next_event = std::min(next_event, config_.max_cycles);
    // Each core that ended cycle now_ queue-stalled is charged for the
    // cycles strictly between now_ and next_event, on which no core is
    // evaluated: now_ was charged by its own evaluation, and next_event is
    // charged by the next one if it is still blocked.
    const std::uint64_t skipped = next_event - now_ - 1;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      if (outcomes[c] == StepOutcome::kStallDeqEmpty) {
        cores_[c].mutable_stats().stall_queue_empty += skipped;
      } else if (outcomes[c] == StepOutcome::kStallEnqFull) {
        cores_[c].mutable_stats().stall_queue_full += skipped;
      }
    }
    now_ = next_event;
  }

  return FinishResult();
}

template <bool kTraced>
RunResult Machine::RunFast() {
  // Laggard-first event loop.  It always steps the core whose next
  // evaluation is earliest in (cycle, core index) order, and keeps stepping
  // it while it stays earliest, so Core::Step runs in exactly RunSlow's
  // order: core order within a cycle.  RunSlow also re-evaluates a
  // queue-blocked core every cycle, but such a core is frozen until its
  // partner moves the queue: its pc is unchanged, its operands were ready
  // when it stalled, and only the partner can fill or drain that queue.  So
  // here a blocked core sleeps until the partner's enqueue or dequeue wakes
  // it, and is then charged the cycles it slept, one for each evaluation
  // RunSlow would have found it stalled.  Memory, caches, queues, every
  // counter and Snapshot() therefore match RunSlow at every point of a run:
  // where it completes, deadlocks, stops at max_cycles or throws a machine
  // check.
  //
  // kTraced (a single-core machine) also runs a compiled trace wherever an
  // evaluation finds one anchored at pc, and counts the control transfers
  // that make blocks hot.  A trace exit always lands on a state the
  // interpreted loop could itself have reached (sim/threaded.cpp), so any
  // mix of traced and interpreted steps is bit-identical to RunSlow.
  struct Lane {
    std::uint64_t next = kNever;   // cycle of the next evaluation
    std::uint64_t since = kNever;  // first cycle of the current queue stall
    const HardwareQueue* queue = nullptr;  // the queue a dequeue waits on
    int partner = -1;              // the other end of the stalled queue op
    bool fp = false;               // ... on the fp queue
    bool full = false;             // stalled enqueuing (else dequeuing)
  };
  if constexpr (kTraced) {
    if (!threaded_) {
      threaded_ = std::make_unique<ThreadedCache>(decoded_, &threaded_stats_);
    }
  }
  const std::uint64_t limit = config_.max_cycles;
  const std::uint64_t start = now_;
  std::vector<Lane> lanes(cores_.size());
  int running = 0;
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    if (cores_[c].started() && !cores_[c].halted()) {
      lanes[c].next = std::max(now_, cores_[c].next_issue_cycle());
      ++running;
    }
  }
  int blocked = 0;  // lanes with a queue stall not yet charged
  // Charges a blocked core's stall through cycle `end` - 1 and clears it.
  const auto charge = [&](std::size_t c, std::uint64_t end) {
    Lane& lane = lanes[c];
    CoreStats& stats = cores_[c].mutable_stats();
    (lane.full ? stats.stall_queue_full : stats.stall_queue_empty) +=
        end - lane.since;
    lane.since = kNever;
    --blocked;
  };

  // The latest cycle in which a core issued, and the one before it: a
  // machine check leaves last_issue_cycle_ where RunSlow has it mid-cycle.
  std::uint64_t last = start;
  std::uint64_t prior = start;
  bool issued = false;
  std::uint64_t t = start;
  std::size_t m = 0;
  try {
    while (running > 0) {
      // The earliest lane m, and the runner-up (second, runner) in the
      // same scan; ties go to the lower index.
      std::uint64_t first = kNever;
      std::uint64_t second = kNever;
      std::size_t runner = lanes.size();
      m = lanes.size();
      for (std::size_t c = 0; c < lanes.size(); ++c) {
        const std::uint64_t next = lanes[c].next;
        if (next < first) {
          second = first;
          runner = m;
          first = next;
          m = c;
        } else if (next < second) {
          second = next;
          runner = c;
        }
      }
      if (first >= limit) {
        break;  // every running core is blocked, or waits past the limit
      }
      Core& core = cores_[m];
      Lane& lane = lanes[m];
      t = first;
      for (;;) {
        if (lane.since != kNever) {
          charge(m, t);  // woken: the op it stalled on issues now
        }
        if constexpr (kTraced) {
          ThreadedTrace* const trace = threaded_->TraceAt(core.pc());
          if (trace != nullptr) {
            ++threaded_stats_.trace_enters;
            std::uint64_t clock = t;
            const TraceRun run =
                ThreadedExec::Run(core, *trace, clock, limit, threaded_stats_);
            if (run.executed > 0) {
              prior = last;
              last = clock - 1;  // the trace's last issue
              issued = true;
            }
            if (run.exit == TraceRun::Exit::kHalt) {
              --running;
              if (!core0_halt_recorded_) {
                core0_halt_recorded_ = true;
                core0_halt_cycle_ = last;
              }
              lane.next = kNever;
              break;
            }
            t = std::max(clock, core.next_issue_cycle());
            if (run.exit == TraceRun::Exit::kBranch) {
              // A taken branch left the trace: its target may be (or
              // become) another trace head.
              threaded_->NoteControlTransfer(core.pc());
              if (t < limit) {
                continue;
              }
            }
            if (t >= limit) {
              lane.next = t;
              break;
            }
            // Deopt: pc is on an op the trace did not issue.  The
            // interpreted step below re-derives the precise max_cycles and
            // divide-trap ordering.
          }
        }
        const std::int64_t pc = core.pc();
        const StepOutcome outcome = core.Step(t, decoded_, memory_, queues_);
        std::uint64_t next = kNever;
        if (outcome == StepOutcome::kIssued) {
          if (t != last) {
            prior = last;
            last = t;
          }
          issued = true;
          if (core.halted()) {
            --running;
            if (m == 0 && !core0_halt_recorded_) {
              core0_halt_recorded_ = true;
              core0_halt_cycle_ = t;
            }
          } else {
            next = std::max(t + 1, core.next_issue_cycle());
            if constexpr (kTraced) {
              if (core.pc() != pc + 1) {
                threaded_->NoteControlTransfer(core.pc());
              }
            }
          }
          const DecodedInstruction* op = blocked != 0 ? &decoded_.at(pc) : nullptr;
          if (op != nullptr && (op->is_enqueue || op->is_dequeue)) {
            // Wake the partner if it is blocked on the queue this op moved:
            // a dequeue-blocked one when the value arrives, an
            // enqueue-blocked one this cycle if RunSlow evaluates it after
            // m, else the next.
            const std::size_t r = static_cast<std::size_t>(op->queue);
            Lane& other = lanes[r];
            if (other.since != kNever && other.partner == static_cast<int>(m) &&
                other.fp == op->is_fp_queue && other.full == op->is_dequeue) {
              if (other.full) {
                other.next = r > m ? t : t + 1;
              } else if (other.next == kNever) {
                other.next = other.queue->HeadArrival();
              }
              if (other.next < second || (other.next == second && r < runner)) {
                second = other.next;
                runner = r;
              }
            }
          }
        } else if (outcome == StepOutcome::kPipelineBusy) {
          next = core.next_issue_cycle();
        } else {
          const DecodedInstruction& op = decoded_.at(pc);
          lane.since = t;
          lane.partner = op.queue;
          lane.fp = op.is_fp_queue;
          lane.full = outcome == StepOutcome::kStallEnqFull;
          ++blocked;
          if (!lane.full) {
            lane.queue = op.is_fp_queue ? &queues_.FpQueue(op.queue, core.id())
                                        : &queues_.IntQueue(op.queue, core.id());
            // CanDequeue(t) was false: a non-empty queue's head arrives later.
            if (!lane.queue->empty()) {
              next = lane.queue->HeadArrival();
            }
          }
        }
        lane.next = next;
        if (next >= limit || next > second || (next == second && m > runner)) {
          break;
        }
        t = next;
      }
    }
  } catch (...) {
    // A machine check in Step at (t, m): RunSlow has evaluated the cores
    // before m in cycle t but not yet ended the cycle.
    for (std::size_t c = 0; c < lanes.size(); ++c) {
      if (lanes[c].since != kNever) {
        charge(c, c < m ? t + 1 : t);
      }
    }
    now_ = t;
    last_issue_cycle_ = last == t ? prior : last;
    throw;
  }
  last_issue_cycle_ = last;
  // The first cycle RunSlow evaluates after the last issue.
  const std::uint64_t resume = issued ? last + 1 : start;
  if (running == 0) {
    now_ = resume;
    return FinishResult();
  }
  // No core is evaluated before the limit.  If no core has an event at
  // all, RunSlow finds the deadlock in the first cycle after the last issue
  // in which every running core has stalled, and charges that cycle too;
  // otherwise, or if that cycle is past the limit, it stops at the limit.
  bool deadlock = true;
  std::uint64_t deadlock_cycle = resume;
  for (const Lane& lane : lanes) {
    if (lane.next != kNever) {
      deadlock = false;
    } else if (lane.since != kNever) {
      deadlock_cycle = std::max(deadlock_cycle, lane.since);
    }
  }
  deadlock = deadlock && deadlock_cycle < limit;
  now_ = deadlock ? deadlock_cycle : limit;
  for (std::size_t c = 0; c < lanes.size(); ++c) {
    if (lanes[c].since != kNever) {
      charge(c, deadlock ? now_ + 1 : now_);
    }
  }
  if (deadlock) {
    throw DeadlockError(BuildStallReport());
  }
  StopAtCycleLimit();
}

void Machine::TelemetryStall(std::size_t core_index,
                             telemetry::StallCause cause) {
  if (telemetry_ == nullptr) {
    return;
  }
  telemetry::StallCause& open = open_stall_cause_[core_index];
  if (open == cause) {
    return;  // the stall continues; the interval stays open
  }
  if (open != telemetry::StallCause::kNone) {
    TelemetryStallEnd(core_index);
  }
  open = cause;
  open_stall_begin_[core_index] = now_;
  telemetry::SimEvent event;
  event.kind = telemetry::SimEventKind::kStallBegin;
  event.cycle = now_;
  event.core = static_cast<int>(core_index);
  event.cause = cause;
  telemetry_->OnSim(event);
}

void Machine::TelemetryStallEnd(std::size_t core_index) {
  if (telemetry_ == nullptr ||
      open_stall_cause_[core_index] == telemetry::StallCause::kNone) {
    return;
  }
  telemetry::SimEvent event;
  event.kind = telemetry::SimEventKind::kStallEnd;
  event.cycle = now_;
  event.core = static_cast<int>(core_index);
  event.cause = open_stall_cause_[core_index];
  event.begin_cycle = open_stall_begin_[core_index];
  telemetry_->OnSim(event);
  open_stall_cause_[core_index] = telemetry::StallCause::kNone;
}

void Machine::TelemetryCloseStalls() {
  if (telemetry_ == nullptr) {
    return;
  }
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    TelemetryStallEnd(c);
  }
}

void Machine::TelemetryIssue(std::size_t core_index, std::int64_t pc) {
  const DecodedInstruction& inst = decoded_.at(pc);
  telemetry::SimEvent event;
  event.kind = telemetry::SimEventKind::kIssue;
  event.cycle = now_;
  event.core = static_cast<int>(core_index);
  event.pc = pc;
  event.name = isa::OpcodeName(inst.op);
  telemetry_->OnSim(event);
  if (!inst.is_enqueue && !inst.is_dequeue) {
    return;
  }
  // A queue op also moves a value through a directional channel: report
  // the channel and its occupancy after the op (the enqueued value counts
  // even while still in flight).
  const bool enq = inst.is_enqueue;
  const int self = static_cast<int>(core_index);
  const int remote = inst.queue;
  telemetry::SimEvent queue_event;
  queue_event.kind = enq ? telemetry::SimEventKind::kQueueEnqueue
                         : telemetry::SimEventKind::kQueueDequeue;
  queue_event.cycle = now_;
  queue_event.core = self;
  queue_event.queue_src = enq ? self : remote;
  queue_event.queue_dst = enq ? remote : self;
  queue_event.queue_is_fp = inst.is_fp_queue;
  const HardwareQueue& queue =
      queue_event.queue_is_fp
          ? queues_.FpQueue(queue_event.queue_src, queue_event.queue_dst)
          : queues_.IntQueue(queue_event.queue_src, queue_event.queue_dst);
  queue_event.occupancy = queue.size();
  telemetry_->OnSim(queue_event);
}

StallReport Machine::BuildStallReport() const {
  StallReport report;
  report.cycle = now_;
  report.stalled_cycles = now_ - last_issue_cycle_;
  for (const Core& c : cores_) {
    StallReport::CoreState state;
    state.core = c.id();
    state.started = c.started();
    state.halted = c.halted();
    state.pc = c.pc();
    state.detail = c.Describe(program_);
    int remote = -1;
    bool is_fp = false;
    if (c.stalled_on_deq(remote, is_fp)) {
      state.wait = StallReport::CoreState::Wait::kDeqEmpty;
      state.remote_core = remote;
      state.queue_is_fp = is_fp;
      const HardwareQueue& q = is_fp ? queues_.FpQueue(remote, c.id())
                                     : queues_.IntQueue(remote, c.id());
      state.queue_occupancy = q.size();
      state.queue_in_flight = q.InFlight(now_);
    } else if (c.stalled_on_enq(remote, is_fp)) {
      state.wait = StallReport::CoreState::Wait::kEnqFull;
      state.remote_core = remote;
      state.queue_is_fp = is_fp;
      const HardwareQueue& q = is_fp ? queues_.FpQueue(c.id(), remote)
                                     : queues_.IntQueue(c.id(), remote);
      state.queue_occupancy = q.size();
      state.queue_in_flight = q.InFlight(now_);
    }
    report.cores.push_back(std::move(state));
  }
  for (int src = 0; src < config_.num_cores; ++src) {
    for (int dst = 0; dst < config_.num_cores; ++dst) {
      if (src == dst) {
        continue;
      }
      const HardwareQueue& qi = queues_.IntQueue(src, dst);
      const HardwareQueue& qf = queues_.FpQueue(src, dst);
      if (qi.size() > 0 || qf.size() > 0) {
        report.queues.push_back(StallReport::QueueState{
            src, dst, qi.size(), qf.size(), qi.InFlight(now_),
            qf.InFlight(now_)});
      }
    }
  }
  return report;
}

}  // namespace fgpar::sim
