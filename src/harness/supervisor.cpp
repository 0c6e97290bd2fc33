#include "harness/supervisor.hpp"

#include <csignal>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>

#include "harness/checkpoint.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "support/error.hpp"
#include "support/serial.hpp"

namespace fgpar::harness {

namespace {

std::string MessageOf(const std::exception_ptr& exception) {
  try {
    std::rethrow_exception(exception);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// Parses a non-negative count from an environment variable (0/unset =
/// disabled).  Used by the kill drill below.
std::size_t CountFromEnv(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return 0;
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  return end != env && *end == '\0' ? static_cast<std::size_t>(value) : 0;
}

/// Payload version 1 carries six simulated-fault counters after
/// failure_reason.  Nothing produces them any more; the slots are written
/// as 0 and skipped on decode, so journals from older builds still resume.
constexpr int kRetiredFaultCounters = 6;

}  // namespace

SweepSupervisor::SweepSupervisor(SupervisorConfig config)
    : config_(std::move(config)) {
  FGPAR_CHECK_MSG(!config_.name.empty(), "SweepSupervisor needs a name");
}

SweepOutcome SweepSupervisor::Run(const PointBody& body,
                                  const ReproEmitter& repro) {
  const std::size_t count = config_.labels.size();
  SweepOutcome outcome;
  outcome.payloads.resize(count);
  outcome.completed.assign(count, 0);

  std::optional<SweepCheckpoint> journal;
  if (!config_.checkpoint_path.empty()) {
    const std::uint64_t fingerprint =
        GridFingerprint(config_.name, config_.labels);
    journal = config_.resume
                  ? SweepCheckpoint::LoadOrCreate(config_.checkpoint_path,
                                                  config_.name, fingerprint)
                  : SweepCheckpoint(config_.checkpoint_path, config_.name,
                                    fingerprint);
    for (std::size_t i = 0; i < count; ++i) {
      if (const std::string* payload = journal->PointPayload(i)) {
        outcome.payloads[i] = *payload;
        outcome.completed[i] = 1;
        ++outcome.resumed_points;
      }
    }
  }

  const std::size_t exit_after = CountFromEnv("FGPAR_SUPERVISOR_EXIT_AFTER");
  std::mutex mutex;  // guards the journal and the kill counter
  std::size_t journaled_this_run = 0;
  std::vector<std::optional<PointFailure>> failed(count);

  detail::RunSweepIndices(
      count, ResolveSweepThreads(config_.sweep_threads), [&](std::size_t i) {
        if (outcome.completed[i]) {
          return;  // replayed from the journal
        }
        PointContext context;
        context.index = i;
        context.label = config_.labels[i];

        // Telemetry routing for this point: the shared sink, re-stamped to
        // this point's stream lane.
        telemetry::StreamSink lane(config_.telemetry, static_cast<int>(i));
        if (config_.telemetry != nullptr) {
          context.telemetry = &lane;
        }

        std::exception_ptr error;
        {
          // The point span is emitted even when the body throws — the
          // trace shows exactly where the wall-clock went.
          telemetry::ScopedSpan span(config_.telemetry, "point", context.label,
                                     static_cast<int>(i));
          span.Note("index", static_cast<std::int64_t>(i));
          try {
            std::string payload = body(context);
            std::lock_guard<std::mutex> lock(mutex);
            outcome.payloads[i] = std::move(payload);
            outcome.completed[i] = 1;
            if (journal) {
              journal->RecordPoint(i, outcome.payloads[i]);
              ++journaled_this_run;
              if (exit_after > 0 && journaled_this_run >= exit_after) {
                // The resume drill: die exactly like an external kill -9,
                // with the journal durably holding this point.
                std::raise(SIGKILL);
              }
            }
            return;
          } catch (...) {
            error = std::current_exception();
          }
        }

        PointFailure failure;
        failure.index = i;
        failure.label = context.label;
        failure.message = MessageOf(error);
        if (repro) {
          try {
            failure.repro_bundle = repro(context, failure);
          } catch (const std::exception& e) {
            failure.message += "; repro bundle emission failed: ";
            failure.message += e.what();
          }
        }
        std::lock_guard<std::mutex> lock(mutex);
        failed[i] = std::move(failure);
      });

  for (std::size_t i = 0; i < count; ++i) {
    if (failed[i]) {
      outcome.failures.push_back(std::move(*failed[i]));
    }
  }
  return outcome;
}

void AddFailurePoints(const SweepOutcome& outcome, BenchArtifact& artifact) {
  for (const PointFailure& failure : outcome.failures) {
    BenchArtifact::Failure f;
    f.label = failure.label;
    f.index = failure.index;
    f.message = failure.message;
    f.repro_bundle = failure.repro_bundle;
    artifact.failures.push_back(std::move(f));
  }
}

std::string EncodeKernelRun(const KernelRun& run) {
  ByteWriter w;
  w.U8(1);  // payload version
  w.Str(run.kernel_name);
  w.U64(run.seq_cycles);
  w.U64(run.par_cycles);
  w.F64(run.speedup);
  w.U32(static_cast<std::uint32_t>(run.cores_used));
  w.U32(static_cast<std::uint32_t>(run.initial_fibers));
  w.U32(static_cast<std::uint32_t>(run.data_deps));
  w.F64(run.load_balance);
  w.U32(static_cast<std::uint32_t>(run.com_ops));
  w.U32(static_cast<std::uint32_t>(run.queues_used));
  w.U64(run.seq_instructions);
  w.U64(run.par_instructions);
  w.U64(run.par_queue_transfers);
  w.U32(static_cast<std::uint32_t>(run.max_queue_occupancy));
  w.Bool(run.fallback_used);
  w.U32(0);  // retries: always 0, the runner has one attempt
  w.Str(run.failure_reason);
  for (int i = 0; i < kRetiredFaultCounters; ++i) {
    w.U64(0);
  }
  const std::vector<std::uint8_t>& bytes = w.bytes();
  return std::string(bytes.begin(), bytes.end());
}

KernelRun DecodeKernelRun(const std::string& payload) {
  const std::vector<std::uint8_t> bytes(payload.begin(), payload.end());
  ByteReader r(bytes);
  const std::uint8_t version = r.U8();
  FGPAR_CHECK_MSG(version == 1, "unsupported KernelRun payload version " +
                                    std::to_string(version));
  KernelRun run;
  run.kernel_name = r.Str();
  run.seq_cycles = r.U64();
  run.par_cycles = r.U64();
  run.speedup = r.F64();
  run.cores_used = static_cast<int>(r.U32());
  run.initial_fibers = static_cast<int>(r.U32());
  run.data_deps = static_cast<int>(r.U32());
  run.load_balance = r.F64();
  run.com_ops = static_cast<int>(r.U32());
  run.queues_used = static_cast<int>(r.U32());
  run.seq_instructions = r.U64();
  run.par_instructions = r.U64();
  run.par_queue_transfers = r.U64();
  run.max_queue_occupancy = static_cast<int>(r.U32());
  run.fallback_used = r.Bool();
  (void)r.U32();  // retries
  run.failure_reason = r.Str();
  for (int i = 0; i < kRetiredFaultCounters; ++i) {
    (void)r.U64();
  }
  r.CheckFullyConsumed();
  return run;
}

}  // namespace fgpar::harness
