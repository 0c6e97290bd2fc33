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
  const PauseResult outcome =
      RunUntil(std::numeric_limits<std::uint64_t>::max());
  // stop_at_ is max and max_cycles is checked first, so a pause is
  // impossible: the run either finishes or throws.
  FGPAR_CHECK(outcome.finished);
  return outcome.result;
}

PauseResult Machine::RunUntil(std::uint64_t stop_cycle) {
  stop_at_ = stop_cycle;
  const bool resuming = paused_;
  if (!resuming) {
    // A fresh run (not a resume): reset the per-run bookkeeping exactly as
    // the loop-local variables used to be.
    last_issue_cycle_ = now_;
    core0_halt_recorded_ = false;
    core0_halt_cycle_ = 0;
  }
  paused_ = false;
  if (telemetry_ != nullptr &&
      (!resuming || open_stall_cause_.size() != cores_.size())) {
    // Telemetry-only stall latches: reset at every fresh run (and sized on
    // first use when a sink is installed mid-sequence).
    open_stall_cause_.assign(cores_.size(), telemetry::StallCause::kNone);
    open_stall_begin_.assign(cores_.size(), 0);
  }
  const RunTier tier = resolved_tier();
  if (tier == RunTier::kSlow) {
    return RunSlow();
  }
  if (!decoded_) {
    decoded_ = std::make_unique<DecodedProgram>(program_, config_.timing);
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

PauseResult Machine::PauseHere() {
  paused_ = true;
  return PauseResult{};
}

PauseResult Machine::RunSlow() {
  constexpr std::uint64_t kNoEvent = std::numeric_limits<std::uint64_t>::max();
  int running = RunningCores();

  // `outcomes_` is only cleared once per Run, not once per cycle: a slot is
  // rewritten whenever its core is evaluated, and stale slots are only ever
  // read in the fast-forward accounting below, which runs when *no* core
  // issued — a cycle in which every active core was evaluated.
  outcomes_.assign(cores_.size(), StepOutcome::kIdle);
  std::vector<StepOutcome>& outcomes = outcomes_;
  const int tpc = config_.threads_per_core;
  const int physical = (config_.num_cores + tpc - 1) / tpc;

  while (running > 0) {
    if (now_ >= stop_at_) {
      return PauseHere();  // natural loop boundary: all state consistent
    }
    FGPAR_CHECK_MSG(now_ < config_.max_cycles, "simulation exceeded max_cycles");

    bool issued_any = false;
    for (int p = 0; p < physical; ++p) {
      // SMT arbitration: the hardware threads of one physical core share a
      // single issue slot per cycle, round-robin priority.
      const int base = p * tpc;
      const int count = std::min(tpc, config_.num_cores - base);
      const int start = static_cast<int>(now_ % static_cast<std::uint64_t>(count));
      bool slot_taken = false;
      for (int k = 0; k < count && !slot_taken; ++k) {
        const std::size_t c = static_cast<std::size_t>(base + (start + k) % count);
        const std::int64_t pc_before = cores_[c].pc();
        outcomes[c] = cores_[c].Step(now_, program_, memory_, queues_);
        switch (outcomes[c]) {
          case StepOutcome::kIssued:
            issued_any = true;
            slot_taken = true;
            if (cores_[c].halted()) {
              --running;
            }
            if (telemetry_ != nullptr) {
              TelemetryStallEnd(c);
              TelemetryIssue(c, pc_before);
            }
            break;
          case StepOutcome::kStallDeqEmpty:
            ++cores_[c].mutable_stats().stall_queue_empty;
            TelemetryStall(c, telemetry::StallCause::kQueueEmpty);
            break;
          case StepOutcome::kStallEnqFull:
            ++cores_[c].mutable_stats().stall_queue_full;
            TelemetryStall(c, telemetry::StallCause::kQueueFull);
            break;
          case StepOutcome::kPipelineBusy:
            TelemetryStall(c, telemetry::StallCause::kPipeline);
            break;
          default:
            break;
        }
        if (cores_[c].halted() && c == 0 && !core0_halt_recorded_) {
          core0_halt_recorded_ = true;
          core0_halt_cycle_ = now_;
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
    // Account the skipped cycles as queue-stall time where applicable.
    const std::uint64_t skipped = next_event - now_;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      if (outcomes[c] == StepOutcome::kStallDeqEmpty) {
        cores_[c].mutable_stats().stall_queue_empty += skipped;
      } else if (outcomes[c] == StepOutcome::kStallEnqFull) {
        cores_[c].mutable_stats().stall_queue_full += skipped;
      }
    }
    now_ = next_event;
  }

  return PauseResult{true, FinishResult()};
}

PauseResult Machine::RunFast() {
  // Fast path: no trace sink.  The loop mirrors RunSlow cycle-for-cycle —
  // same SMT slot arbitration, same intra-cycle core order, same
  // fast-forward events, same stall accounting — but (a) issues through
  // the predecoded instruction cache and (b) skips the full issue attempt
  // for cores that provably cannot issue this cycle: pipeline-busy cores
  // and cores still blocked on the same queue condition that stalled them
  // last evaluation.  A skipped blocked core costs two loads and a compare
  // instead of a Step call.
  //
  // The skip is sound because a queue-stalled core's state is frozen until
  // its queue condition changes: its pc is unchanged, its source operands
  // were ready when the stall was diagnosed (ready-cycles only move when
  // the core itself issues), and its issue stage is free.  Re-evaluating
  // CanEnqueue/CanDequeue at the core's exact position in the cycle order
  // therefore reproduces precisely what Step would have concluded.
  const DecodedProgram& dp = *decoded_;

  constexpr std::uint64_t kNoEvent = std::numeric_limits<std::uint64_t>::max();
  int running = RunningCores();

  // Same once-per-Run clear as RunSlow; stale slots are only read in the
  // no-issue fast-forward, when every active core was evaluated this cycle.
  outcomes_.assign(cores_.size(), StepOutcome::kIdle);
  std::vector<StepOutcome>& outcomes = outcomes_;
  const int tpc = config_.threads_per_core;
  const int physical = (config_.num_cores + tpc - 1) / tpc;

  while (running > 0) {
    if (now_ >= stop_at_) {
      return PauseHere();  // natural loop boundary: all state consistent
    }
    FGPAR_CHECK_MSG(now_ < config_.max_cycles, "simulation exceeded max_cycles");

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
        const StepOutcome outcome = core.StepFast(now_, dp, memory_, queues_);
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
    // pipeline-free cycle is in the event set), so the only observable
    // difference is the stall accounting, compensated for exactly below.
    std::uint64_t next_event = kNoEvent;
    bool crawl = false;  // would the reference loop advance cycle-by-cycle?
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
          crawl = true;
        }
      }
      // Cores stalled on a full queue depend on another core's progress;
      // they contribute no event of their own.
    }

    if (next_event == kNoEvent) {
      throw DeadlockError(BuildStallReport());
    }
    // Stall accounting, matched to the reference loop.  Jumping k cycles
    // with no in-flight value pending charges each stalled core k (one per
    // skipped fast-forward).  When a value is in flight, the reference
    // loop instead crawls those k cycles one at a time, so each stalled
    // core is charged twice per cycle — once by its re-check and once by
    // the single-cycle fast-forward — except the landing cycle's re-check,
    // which both loops perform normally: 2k - 1.
    const std::uint64_t skipped = next_event - now_;
    const std::uint64_t charge = crawl ? 2 * skipped - 1 : skipped;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      if (outcomes[c] == StepOutcome::kStallDeqEmpty) {
        cores_[c].mutable_stats().stall_queue_empty += charge;
      } else if (outcomes[c] == StepOutcome::kStallEnqFull) {
        cores_[c].mutable_stats().stall_queue_full += charge;
      }
    }
    now_ = next_event;
  }

  return PauseResult{true, FinishResult()};
}

PauseResult Machine::RunFastSingle(bool traced) {
  // Single-core specialization of the fast path.  A hardware queue needs
  // two distinct cores (QueueMatrix rejects self-queues), so on one core a
  // step can only issue or wait on its own pipeline — no SMT arbitration,
  // no queue-stall bookkeeping, no fast-forward event scan.  The loop jumps
  // straight to next_issue_cycle() instead of polling intermediate cycles.
  // This visits exactly the reference loop's Step call sites that mutate
  // state: the reference polls once right after the previous issue (where
  // Step either issues, or accrues stall_raw and publishes the true
  // next_issue_cycle) and then fast-forwards to that same cycle; the polls
  // it makes in between hit Step's next_issue early-out, which touches
  // nothing.  Cycle counts and statistics are therefore bit-identical
  // (tests/sim_golden_test.cpp).
  //
  // When `traced`, every iteration first checks the pause horizon, then
  // either executes a compiled trace anchored at pc or takes one
  // interpreted step, which also counts control transfers (the translation
  // trigger).  Trace exits always land on a state this loop could itself
  // have been in at this boundary (sim/threaded.cpp), so any mix of traced
  // and interpreted execution is bit-identical to the untraced loop.
  const DecodedProgram& dp = *decoded_;
  if (traced && !threaded_) {
    threaded_ = std::make_unique<ThreadedCache>(dp, &threaded_stats_);
  }
  ThreadedCache* const tc = traced ? threaded_.get() : nullptr;
  Core& core = cores_.front();
  const std::uint64_t limit = std::min(stop_at_, config_.max_cycles);
  // After a kBoundary trace exit the same trace would exit again without
  // progress; force one interpreted step, which re-derives the precise
  // pause / max_cycles / divide-trap ordering and always makes progress.
  bool interpret_once = false;

  while (core.started() && !core.halted()) {
    if (now_ >= stop_at_) {
      return PauseHere();  // natural loop boundary: all state consistent
    }
    if (tc != nullptr && !interpret_once) {
      ThreadedTrace* trace = tc->TraceAt(core.pc());
      if (trace != nullptr) {
        ++threaded_stats_.trace_enters;
        const TraceRun run = ThreadedExec::Run(
            core, *trace, now_, limit, last_issue_cycle_, threaded_stats_);
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
            // pc is on an untranslatable op; the dispatch above will miss
            // and the interpreted step below handles it.
            break;
          case TraceRun::Exit::kBoundary:
            interpret_once = true;
            continue;  // re-check the pause horizon first
        }
      }
    }
    interpret_once = false;

    const std::uint64_t next = core.next_issue_cycle();
    if (next > now_) {
      now_ = next;
    }
    FGPAR_CHECK_MSG(now_ < config_.max_cycles, "simulation exceeded max_cycles");
    const std::int64_t pc_before = core.pc();
    if (core.StepFast(now_, dp, memory_, queues_) == StepOutcome::kIssued) {
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

  return PauseResult{true, FinishResult()};
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
  const isa::Instruction& inst = program_.at(pc);
  telemetry::SimEvent event;
  event.kind = telemetry::SimEventKind::kIssue;
  event.cycle = now_;
  event.core = static_cast<int>(core_index);
  event.pc = pc;
  event.name = isa::OpcodeName(inst.op);
  telemetry_->OnSim(event);
  if (!isa::IsQueueOp(inst.op)) {
    return;
  }
  // A queue op also moves a value through a directional channel: report
  // the channel and its occupancy after the op (the enqueued value counts
  // even while still in flight).
  const bool enq = isa::IsEnqueue(inst.op);
  const int self = static_cast<int>(core_index);
  const int remote = inst.queue;
  telemetry::SimEvent queue_event;
  queue_event.kind = enq ? telemetry::SimEventKind::kQueueEnqueue
                         : telemetry::SimEventKind::kQueueDequeue;
  queue_event.cycle = now_;
  queue_event.core = self;
  queue_event.queue_src = enq ? self : remote;
  queue_event.queue_dst = enq ? remote : self;
  queue_event.queue_is_fp = isa::IsFpQueueOp(inst.op);
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
