#include "sim/machine.hpp"

#include <algorithm>

#include <limits>
#include <sstream>

namespace fgpar::sim {

namespace {
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
  const RunTier tier = resolved_tier();
  if (tier == RunTier::kSlow) {
    return RunSlow();
  }
  if (config_.num_cores > 1) {
    return RunFast();
  }
  return RunFastSingle(/*traced=*/tier == RunTier::kAuto);
}

RunTier Machine::resolved_tier() const {
  // A sink always wins: the reference loop is the only one that carries
  // the sim-event sink.
  if (telemetry_ != nullptr) {
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
  constexpr std::uint64_t kNoEvent = std::numeric_limits<std::uint64_t>::max();
  int running = RunningCores();

  // `outcomes_` is only cleared once per Run, not once per cycle: a slot is
  // rewritten whenever its core is evaluated, and stale slots are only ever
  // read by ChargeSkippedStalls, which runs when *no* core issued — a cycle
  // in which every active core was evaluated.
  outcomes_.assign(cores_.size(), StepOutcome::kIdle);
  std::vector<StepOutcome>& outcomes = outcomes_;
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
    FGPAR_CHECK_MSG(now_ - last_issue_cycle_ < config_.no_progress_limit,
                    "no core issued for no_progress_limit cycles");

    // No core issued: fast-forward to the next event.
    std::uint64_t next_event = kNoEvent;
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

    if (next_event == kNoEvent) {
      TelemetryCloseStalls();  // the terminal stall must appear in traces
      throw DeadlockError(BuildStallReport());
    }
    next_event = std::min(next_event, config_.max_cycles);
    ChargeSkippedStalls(next_event);
    now_ = next_event;
  }

  return FinishResult();
}

void Machine::ChargeSkippedStalls(std::uint64_t next_event) {
  const std::uint64_t skipped = next_event - now_ - 1;
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    if (outcomes_[c] == StepOutcome::kStallDeqEmpty) {
      cores_[c].mutable_stats().stall_queue_empty += skipped;
    } else if (outcomes_[c] == StepOutcome::kStallEnqFull) {
      cores_[c].mutable_stats().stall_queue_full += skipped;
    }
  }
}

RunResult Machine::RunFast() {
  // Fast path: no trace sink.  The loop mirrors RunSlow cycle-for-cycle —
  // same SMT slot arbitration, same intra-cycle core order, same
  // fast-forward events, same stall accounting — but skips the issue
  // attempt for cores still blocked on the same queue condition that
  // stalled them last evaluation, and jumps straight to a queue head's
  // arrival.  A skipped blocked core costs two loads and a compare instead
  // of a Step call.
  //
  // The skip is sound because a queue-stalled core's state is frozen until
  // its queue condition changes: its pc is unchanged, its source operands
  // were ready when the stall was diagnosed (ready-cycles only move when
  // the core itself issues), and its issue stage is free.  Re-evaluating
  // CanEnqueue/CanDequeue at the core's exact position in the cycle order
  // therefore reproduces precisely what Step would have concluded.
  constexpr std::uint64_t kNoEvent = std::numeric_limits<std::uint64_t>::max();
  int running = RunningCores();

  // Same once-per-Run clear as RunSlow; stale slots are only read in the
  // no-issue fast-forward, when every active core was evaluated this cycle.
  outcomes_.assign(cores_.size(), StepOutcome::kIdle);
  std::vector<StepOutcome>& outcomes = outcomes_;
  const int tpc = config_.threads_per_core;
  const int physical = (config_.num_cores + tpc - 1) / tpc;

  while (running > 0) {
    if (now_ >= config_.max_cycles) {
      StopAtCycleLimit();
    }

    bool issued_any = false;
    for (int p = 0; p < physical; ++p) {
      const int base = p * tpc;
      const int count = std::min(tpc, config_.num_cores - base);
      const int start =
          count == 1 ? 0 : static_cast<int>(now_ % static_cast<std::uint64_t>(count));
      for (int k = 0; k < count; ++k) {
        const std::size_t c = static_cast<std::size_t>(base + (start + k) % count);
        Core& core = cores_[c];
        if (!core.started() || core.halted()) {
          continue;  // outcome slot stays non-stall forever; never re-read
        }
        if (core.next_issue_cycle() > now_) {
          outcomes[c] = StepOutcome::kPipelineBusy;
          continue;
        }
        int remote = -1;
        bool is_fp = false;
        if (core.stalled_on_deq(remote, is_fp)) {
          const HardwareQueue& q = is_fp ? queues_.FpQueue(remote, core.id())
                                         : queues_.IntQueue(remote, core.id());
          if (!q.CanDequeue(now_)) {
            outcomes[c] = StepOutcome::kStallDeqEmpty;
            ++core.mutable_stats().stall_queue_empty;
            continue;
          }
        } else if (core.stalled_on_enq(remote, is_fp)) {
          const HardwareQueue& q = is_fp ? queues_.FpQueue(core.id(), remote)
                                         : queues_.IntQueue(core.id(), remote);
          if (!q.CanEnqueue()) {
            outcomes[c] = StepOutcome::kStallEnqFull;
            ++core.mutable_stats().stall_queue_full;
            continue;
          }
        }
        const StepOutcome outcome = core.Step(now_, decoded_, memory_, queues_);
        outcomes[c] = outcome;
        switch (outcome) {
          case StepOutcome::kIssued:
            issued_any = true;
            if (core.halted()) {
              --running;
              if (c == 0 && !core0_halt_recorded_) {
                core0_halt_recorded_ = true;
                core0_halt_cycle_ = now_;
              }
            }
            break;
          case StepOutcome::kStallDeqEmpty:
            ++core.mutable_stats().stall_queue_empty;
            break;
          case StepOutcome::kStallEnqFull:
            ++core.mutable_stats().stall_queue_full;
            break;
          default:
            break;
        }
        if (outcome == StepOutcome::kIssued) {
          break;  // SMT: the physical core's single issue slot is taken
        }
      }
    }

    if (issued_any) {
      last_issue_cycle_ = now_;
      ++now_;
      continue;
    }
    FGPAR_CHECK_MSG(now_ - last_issue_cycle_ < config_.no_progress_limit,
                    "no core issued for no_progress_limit cycles");

    // No core issued: fast-forward to the next event (same event model as
    // RunSlow).  Unlike the reference loop, which advances one cycle at a
    // time while any dequeue-blocked queue has a value in flight, this loop
    // jumps straight to the head's arrival: nothing can issue in between
    // (queue contents are frozen while no core issues, and every
    // pipeline-free cycle is in the event set), and a stalled core is
    // charged the same for a crawled cycle and a skipped one.
    std::uint64_t next_event = kNoEvent;
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
        // CanDequeue(now_) was false, so a non-empty queue's head arrives
        // strictly in the future; its arrival is this core's next event.
        if (!q.empty()) {
          next_event = std::min(next_event, q.HeadArrival());
        }
      }
      // Cores stalled on a full queue depend on another core's progress;
      // they contribute no event of their own.
    }

    if (next_event == kNoEvent) {
      throw DeadlockError(BuildStallReport());
    }
    next_event = std::min(next_event, config_.max_cycles);
    ChargeSkippedStalls(next_event);
    now_ = next_event;
  }

  return FinishResult();
}

RunResult Machine::RunFastSingle(bool traced) {
  // Single-core specialization of the fast path.  A hardware queue needs
  // two distinct cores (QueueMatrix rejects self-queues), so on one core a
  // step can only issue or wait on its own pipeline — no SMT arbitration,
  // no queue-stall bookkeeping, no fast-forward event scan.  The loop jumps
  // straight to next_issue_cycle() instead of polling intermediate cycles.
  // This makes exactly the reference loop's Step calls: the reference
  // steps once right after the previous issue (where Step either issues,
  // or accrues stall_raw and publishes the true next_issue_cycle) and then
  // fast-forwards to that same cycle; in between it finds the issue stage
  // busy and steps nothing.  Cycle counts and statistics are therefore
  // bit-identical (tests/sim_golden_test.cpp).
  //
  // The jump is clamped at max_cycles, so a run that cannot issue before
  // the limit stops exactly there, as the reference loop's fast-forward
  // does.
  //
  // When `traced`, every iteration either executes a compiled trace
  // anchored at pc or takes one interpreted step, which also counts
  // control transfers (the translation trigger).  Trace exits always land
  // on a state this loop could itself have been in at this boundary
  // (sim/threaded.cpp), so any mix of traced and interpreted execution is
  // bit-identical to the untraced loop.
  if (traced && !threaded_) {
    threaded_ = std::make_unique<ThreadedCache>(decoded_, &threaded_stats_);
  }
  ThreadedCache* const tc = traced ? threaded_.get() : nullptr;
  Core& core = cores_.front();

  while (core.started() && !core.halted()) {
    if (tc != nullptr) {
      ThreadedTrace* trace = tc->TraceAt(core.pc());
      if (trace != nullptr) {
        ++threaded_stats_.trace_enters;
        const TraceRun run =
            ThreadedExec::Run(core, *trace, now_, config_.max_cycles,
                              last_issue_cycle_, threaded_stats_);
        switch (run.exit) {
          case TraceRun::Exit::kHalt:
            if (!core0_halt_recorded_) {
              core0_halt_recorded_ = true;
              core0_halt_cycle_ = last_issue_cycle_;
            }
            continue;  // loop condition ends the run
          case TraceRun::Exit::kBranch:
            // A taken branch left the trace: its target may be (or become)
            // another trace head.
            tc->NoteControlTransfer(core.pc());
            continue;
          case TraceRun::Exit::kDeopt:
            // pc is on an op the trace did not issue: an untranslatable op,
            // or one that could reach max_cycles or trap.  The interpreted
            // step below re-derives the precise max_cycles / divide-trap
            // ordering and always makes progress.
            break;
        }
      }
    }

    const std::uint64_t next = core.next_issue_cycle();
    if (next > now_) {
      now_ = std::min(next, config_.max_cycles);
    }
    if (now_ >= config_.max_cycles) {
      StopAtCycleLimit();
    }
    const std::int64_t pc_before = core.pc();
    if (core.Step(now_, decoded_, memory_, queues_) == StepOutcome::kIssued) {
      if (core.halted()) {
        if (!core0_halt_recorded_) {
          core0_halt_recorded_ = true;
          core0_halt_cycle_ = now_;
        }
      } else if (tc != nullptr && core.pc() != pc_before + 1) {
        tc->NoteControlTransfer(core.pc());
      }
      last_issue_cycle_ = now_;
      ++now_;
    } else {
      // kPipelineBusy with a strictly future next_issue_cycle; queue stalls
      // are unreachable on one core, so the next iteration always advances.
      FGPAR_CHECK_MSG(now_ - last_issue_cycle_ < config_.no_progress_limit,
                      "no core issued for no_progress_limit cycles");
    }
  }

  return FinishResult();
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
