// Tests for the resilient sweep supervisor stack: the checkpoint journal
// ("fgpar-ckpt-v1"), quarantine, checkpoint/resume byte-identity, repro
// bundles, and the runner's cycle budget.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/bench_artifact.hpp"
#include "harness/checkpoint.hpp"
#include "harness/repro.hpp"
#include "harness/runner.hpp"
#include "harness/supervisor.hpp"
#include "kernels/experiments.hpp"
#include "support/error.hpp"
#include "support/telemetry/sinks.hpp"

namespace {

using namespace fgpar;
using harness::PointContext;
using harness::PointFailure;
using harness::SupervisorConfig;
using harness::SweepCheckpoint;
using harness::SweepOutcome;
using harness::SweepSupervisor;

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

// ---- checkpoint journal ---------------------------------------------------

// The journal the checked-in golden (tests/golden/fgpar_ckpt_v1.golden)
// was captured from.  Any format drift — header layout, fingerprint
// algorithm, hex encoding, line format — fails the golden comparison.
SweepCheckpoint MakeGoldenJournal(const std::string& path) {
  const std::vector<std::string> labels = {"alpha", "beta", "gamma"};
  SweepCheckpoint journal(path, "golden",
                          harness::GridFingerprint("golden", labels));
  journal.RecordPoint(0, "alpha-result");
  journal.RecordPoint(2, std::string("binary\x00\x1f\xff payload", 17));
  return journal;
}

TEST(Checkpoint, GoldenFormatIsStable) {
  const std::string path = TempPath("ckpt_golden_rebuild");
  MakeGoldenJournal(path);
  EXPECT_EQ(ReadFile(path),
            ReadFile(std::string(FGPAR_GOLDEN_DIR) + "/fgpar_ckpt_v1.golden"));
  std::remove(path.c_str());
}

TEST(Checkpoint, GoldenJournalLoads) {
  const std::vector<std::string> labels = {"alpha", "beta", "gamma"};
  const SweepCheckpoint journal = SweepCheckpoint::LoadOrCreate(
      std::string(FGPAR_GOLDEN_DIR) + "/fgpar_ckpt_v1.golden", "golden",
      harness::GridFingerprint("golden", labels));
  EXPECT_EQ(journal.CompletedCount(), 2u);
  EXPECT_TRUE(journal.HasPoint(0));
  EXPECT_FALSE(journal.HasPoint(1));
  ASSERT_NE(journal.PointPayload(2), nullptr);
  EXPECT_EQ(*journal.PointPayload(2),
            std::string("binary\x00\x1f\xff payload", 17));
}

TEST(Checkpoint, RecordAndResumeRoundTrip) {
  const std::string path = TempPath("ckpt_roundtrip");
  std::remove(path.c_str());
  const std::vector<std::string> labels = {"p0", "p1", "p2", "p3"};
  const std::uint64_t fp = harness::GridFingerprint("trip", labels);
  {
    SweepCheckpoint journal(path, "trip", fp);
    journal.RecordPoint(1, "one");
    journal.RecordPoint(3, "three");
    // Idempotent re-record of the identical payload is fine...
    journal.RecordPoint(1, "one");
    // ...but a different payload for the same point is a determinism bug.
    EXPECT_THROW(journal.RecordPoint(1, "ONE"), Error);
  }
  const SweepCheckpoint loaded = SweepCheckpoint::LoadOrCreate(path, "trip", fp);
  EXPECT_EQ(loaded.CompletedCount(), 2u);
  EXPECT_TRUE(loaded.HasPoint(1) && loaded.HasPoint(3));
  EXPECT_FALSE(loaded.HasPoint(0) || loaded.HasPoint(2));
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileYieldsEmptyJournal) {
  const SweepCheckpoint journal = SweepCheckpoint::LoadOrCreate(
      TempPath("ckpt_does_not_exist"), "fresh", 42);
  EXPECT_EQ(journal.CompletedCount(), 0u);
}

TEST(Checkpoint, RejectsVersionNameFingerprintAndCorruption) {
  const std::string golden =
      ReadFile(std::string(FGPAR_GOLDEN_DIR) + "/fgpar_ckpt_v1.golden");
  const std::vector<std::string> labels = {"alpha", "beta", "gamma"};
  const std::uint64_t fp = harness::GridFingerprint("golden", labels);
  const std::string path = TempPath("ckpt_reject");

  const auto expect_rejected = [&](const std::string& contents,
                                   const std::string& needle) {
    WriteFile(path, contents);
    try {
      SweepCheckpoint::LoadOrCreate(path, "golden", fp);
      FAIL() << "expected rejection for: " << needle;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  // A newer (or older) format version must be rejected, never merged.
  std::string wrong_version = golden;
  wrong_version.replace(wrong_version.find("-v1"), 3, "-v2");
  expect_rejected(wrong_version, "unsupported checkpoint version");
  // A journal for another sweep or another grid shape must be rejected.
  std::string wrong_name = golden;
  wrong_name.replace(wrong_name.find("golden"), 6, "other1");
  expect_rejected(wrong_name, "belongs to sweep");
  std::string wrong_fp = golden;
  const std::size_t fp_pos = wrong_fp.find(' ', wrong_fp.find("golden")) + 1;
  wrong_fp[fp_pos] = wrong_fp[fp_pos] == '0' ? '1' : '0';
  expect_rejected(wrong_fp, "different grid");
  // Any token after the fingerprint — e.g. the slice token older builds
  // stamped on per-worker journals — must never resume as a whole grid.
  std::string trailing_token = golden;
  trailing_token.insert(trailing_token.find('\n'), " slice=00000000deadbeef");
  expect_rejected(trailing_token, "unexpected header token");
  // Structural corruption.
  expect_rejected("", "empty file");
  expect_rejected(golden + "garbage line here\n", "unexpected line");
  expect_rejected(golden + "point 0 6f74686572\n", "duplicate point");
  expect_rejected(golden + "point x deadbeef\n", "bad point index");
  expect_rejected(golden + "point 5 nothex\n", "");  // bad hex throws too
  std::remove(path.c_str());
}

TEST(Checkpoint, GridFingerprintDiscriminates) {
  const std::uint64_t base =
      harness::GridFingerprint("fig12", {"a cores=2", "b cores=2"});
  EXPECT_EQ(base, harness::GridFingerprint("fig12", {"a cores=2", "b cores=2"}));
  EXPECT_NE(base, harness::GridFingerprint("fig13", {"a cores=2", "b cores=2"}));
  EXPECT_NE(base, harness::GridFingerprint("fig12", {"b cores=2", "a cores=2"}));
  EXPECT_NE(base, harness::GridFingerprint("fig12", {"a cores=2"}));
  // Labels cannot be reassociated across the separator.
  EXPECT_NE(harness::GridFingerprint("x", {"ab", "c"}),
            harness::GridFingerprint("x", {"a", "bc"}));
}

// ---- supervisor policies --------------------------------------------------

SupervisorConfig BasicConfig(const std::string& name, std::size_t points) {
  SupervisorConfig config;
  config.name = name;
  for (std::size_t i = 0; i < points; ++i) {
    config.labels.push_back("point-" + std::to_string(i));
  }
  config.sweep_threads = 2;
  return config;
}

TEST(Supervisor, CleanSweepRunsEveryPointOnce) {
  SupervisorConfig config = BasicConfig("clean", 9);
  std::vector<std::atomic<int>> calls(9);
  const SweepOutcome outcome =
      SweepSupervisor(config).Run([&](const PointContext& ctx) {
        ++calls[ctx.index];
        EXPECT_EQ(ctx.label, "point-" + std::to_string(ctx.index));
        return "r" + std::to_string(ctx.index);
      });
  EXPECT_TRUE(outcome.failures.empty());
  EXPECT_EQ(outcome.resumed_points, 0u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(calls[i].load(), 1) << i;
    EXPECT_TRUE(outcome.completed[i]);
    std::string payload = "r";
    payload += std::to_string(i);
    EXPECT_EQ(outcome.payloads[i], payload);
  }
}

TEST(Supervisor, QuarantineRecordsStructuredFailures) {
  SupervisorConfig config = BasicConfig("quarantine", 8);
  std::atomic<int> ran{0};
  const SweepOutcome outcome = SweepSupervisor(config).Run(
      [&](const PointContext& ctx) -> std::string {
        ++ran;
        if (ctx.index == 2 || ctx.index == 6) {
          throw Error("boom at " + std::to_string(ctx.index));
        }
        return "ok";
      },
      [&](const PointContext& ctx, const PointFailure& failure) {
        EXPECT_EQ(ctx.index, failure.index);
        return "bundle_" + std::to_string(failure.index);
      });
  // Both failures are quarantined — the sweep never aborts — and every
  // point ran exactly once: a failing point is never rerun.
  EXPECT_EQ(ran.load(), 8);
  ASSERT_EQ(outcome.failures.size(), 2u);
  EXPECT_EQ(outcome.failures[0].index, 2u);
  EXPECT_EQ(outcome.failures[1].index, 6u);
  EXPECT_EQ(outcome.failures[0].label, "point-2");
  EXPECT_EQ(outcome.failures[0].message, "boom at 2");
  EXPECT_EQ(outcome.failures[0].repro_bundle, "bundle_2");
  EXPECT_FALSE(outcome.completed[2]);
  EXPECT_TRUE(outcome.completed[3]);
}

TEST(Supervisor, CheckpointResumeSkipsCompletedPoints) {
  const std::string path = TempPath("ckpt_supervisor_resume");
  std::remove(path.c_str());
  SupervisorConfig config = BasicConfig("resume", 12);
  config.checkpoint_path = path;

  // First run: point 7 fails (failures are never journaled).
  std::atomic<int> first_runs{0};
  const SweepOutcome first = SweepSupervisor(config).Run(
      [&](const PointContext& ctx) -> std::string {
        ++first_runs;
        if (ctx.index == 7) {
          throw Error("flaky");
        }
        return "payload-" + std::to_string(ctx.index * ctx.index);
      });
  EXPECT_EQ(first_runs.load(), 12);
  ASSERT_EQ(first.failures.size(), 1u);

  // Resumed run: only the failed point is recomputed, and the combined
  // payload set is identical to an uninterrupted clean run.
  config.resume = true;
  std::atomic<int> second_runs{0};
  const SweepOutcome second = SweepSupervisor(config).Run(
      [&](const PointContext& ctx) {
        ++second_runs;
        EXPECT_EQ(ctx.index, 7u);  // everything else replays from the journal
        return std::string("payload-49");
      });
  EXPECT_EQ(second_runs.load(), 1);
  EXPECT_EQ(second.resumed_points, 11u);
  EXPECT_TRUE(second.failures.empty());
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_TRUE(second.completed[i]);
    EXPECT_EQ(second.payloads[i], "payload-" + std::to_string(i * i));
  }
  std::remove(path.c_str());
}

TEST(Supervisor, NonResumeRunRestartsAnExistingJournal) {
  const std::string path = TempPath("ckpt_supervisor_restart");
  std::remove(path.c_str());
  SupervisorConfig config = BasicConfig("restart", 3);
  config.checkpoint_path = path;
  SweepSupervisor(config).Run(
      [](const PointContext&) { return std::string("old"); });
  // Without --resume the journal is rewritten from scratch: every point
  // recomputes and the file ends up holding the new payloads.
  std::atomic<int> runs{0};
  const SweepOutcome outcome = SweepSupervisor(config).Run(
      [&](const PointContext&) {
        ++runs;
        return std::string("new");
      });
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(outcome.resumed_points, 0u);
  const SweepCheckpoint journal = SweepCheckpoint::LoadOrCreate(
      path, "restart", harness::GridFingerprint("restart", config.labels));
  ASSERT_NE(journal.PointPayload(0), nullptr);
  EXPECT_EQ(*journal.PointPayload(0), "new");
  std::remove(path.c_str());
}

TEST(Supervisor, FailureSectionRendersOnlyWhenNonEmpty) {
  harness::BenchArtifact artifact;
  artifact.name = "quarantine_demo";
  EXPECT_EQ(artifact.ToJson(false).find("failures"), std::string::npos);

  SweepOutcome outcome;
  PointFailure failure;
  failure.index = 4;
  failure.label = "lammps-2 cores=4";
  failure.message = "deadlock: ...";
  failure.repro_bundle = "repro_fig12_point4";
  outcome.failures.push_back(failure);
  harness::AddFailurePoints(outcome, artifact);
  const std::string json = artifact.ToJson(false);
  EXPECT_NE(json.find("\"failures\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"label\": \"lammps-2 cores=4\""), std::string::npos);
  EXPECT_NE(json.find("\"repro_bundle\": \"repro_fig12_point4\""),
            std::string::npos);
  EXPECT_NE(json.find("\"message\": \"deadlock: ...\""), std::string::npos);
}

// ---- KernelRun payload codec ----------------------------------------------

TEST(Supervisor, KernelRunPayloadRoundTrips) {
  harness::KernelRun run;
  run.kernel_name = "lammps-1";
  run.seq_cycles = 123456789;
  run.par_cycles = 45678;
  run.speedup = 2.7025;
  run.cores_used = 4;
  run.initial_fibers = 9;
  run.data_deps = 3;
  run.load_balance = 0.875;
  run.com_ops = 5;
  run.queues_used = 6;
  run.seq_instructions = 987654;
  run.par_instructions = 987660;
  run.par_queue_transfers = 4242;
  run.max_queue_occupancy = 17;
  run.fallback_used = true;
  run.failure_reason = "deadlock: ...";

  const std::string payload = harness::EncodeKernelRun(run);
  const harness::KernelRun decoded = harness::DecodeKernelRun(payload);
  EXPECT_EQ(decoded.kernel_name, run.kernel_name);
  EXPECT_EQ(decoded.seq_cycles, run.seq_cycles);
  EXPECT_EQ(decoded.par_cycles, run.par_cycles);
  EXPECT_DOUBLE_EQ(decoded.speedup, run.speedup);
  EXPECT_EQ(decoded.cores_used, run.cores_used);
  EXPECT_EQ(decoded.initial_fibers, run.initial_fibers);
  EXPECT_EQ(decoded.data_deps, run.data_deps);
  EXPECT_DOUBLE_EQ(decoded.load_balance, run.load_balance);
  EXPECT_EQ(decoded.com_ops, run.com_ops);
  EXPECT_EQ(decoded.queues_used, run.queues_used);
  EXPECT_EQ(decoded.seq_instructions, run.seq_instructions);
  EXPECT_EQ(decoded.par_instructions, run.par_instructions);
  EXPECT_EQ(decoded.par_queue_transfers, run.par_queue_transfers);
  EXPECT_EQ(decoded.max_queue_occupancy, run.max_queue_occupancy);
  EXPECT_EQ(decoded.fallback_used, run.fallback_used);
  EXPECT_EQ(decoded.failure_reason, run.failure_reason);
  // And the byte encoding is stable: re-encoding the decode is identical.
  EXPECT_EQ(harness::EncodeKernelRun(decoded), payload);
  // Older journals carry non-zero fault counters in the payload's last six
  // u64 slots; they still decode, and the counters are dropped.
  std::string legacy = payload;
  legacy.back() = '\x07';
  EXPECT_EQ(harness::EncodeKernelRun(harness::DecodeKernelRun(legacy)), payload);

  EXPECT_THROW(harness::DecodeKernelRun(payload.substr(0, payload.size() / 2)),
               Error);
  EXPECT_THROW(harness::DecodeKernelRun(payload + "x"), Error);
}

// ---- runner integration: cycle budget + failure hook ----------------------

TEST(Supervisor, CycleBudgetAbortsRunsAsCycleBudgetError) {
  const kernels::SequoiaKernel& kernel = kernels::SequoiaKernels()[0];
  kernels::ExperimentConfig experiment;
  experiment.cores = 2;
  harness::RunConfig config = kernels::ToRunConfig(experiment);
  config.max_cycles = 50;  // far below any real kernel's runtime
  EXPECT_THROW(kernels::RunKernel(kernel, config), sim::CycleBudgetError);
}

TEST(Supervisor, FailureHookSeesTheFailedMachine) {
  const kernels::SequoiaKernel& kernel = kernels::SequoiaKernels()[0];
  ASSERT_EQ(kernel.id, "lammps-1");
  kernels::ExperimentConfig experiment;
  experiment.cores = 2;
  harness::RunConfig config = kernels::ToRunConfig(experiment);
  // The sequential run overruns the budget first; the hook must see it.
  config.max_cycles = 50;
  std::vector<std::uint8_t> snapshot;
  int hook_calls = 0;
  config.on_failure = [&](const sim::Machine& machine, const Error&) {
    ++hook_calls;
    snapshot = machine.Snapshot();
  };
  EXPECT_THROW(kernels::RunKernel(kernel, config), sim::CycleBudgetError);
  EXPECT_EQ(hook_calls, 1);
  EXPECT_FALSE(snapshot.empty());
}

TEST(Supervisor, TracedReplayReproducesParallelBudgetFailure) {
  // lammps-4 at 2 cores finishes its sequential run (66,644 cycles) within
  // the budget and stops in its parallel run.  A telemetry sink, which
  // fgpar-repro --trace installs, moves that run to the slow loop; where
  // it stops must not move with it.
  const kernels::SequoiaKernel& kernel = kernels::SequoiaKernelById("lammps-4");
  kernels::ExperimentConfig experiment;
  experiment.cores = 2;
  struct Failure {
    std::string message;
    std::vector<std::uint8_t> snapshot;
  };
  const auto fail = [&](telemetry::TelemetrySink* sink) {
    harness::RunConfig config = kernels::ToRunConfig(experiment);
    config.max_cycles = 68134;
    config.telemetry = sink;
    Failure failure;
    config.on_failure = [&](const sim::Machine& machine, const Error&) {
      failure.snapshot = machine.Snapshot();
    };
    try {
      kernels::RunKernel(kernel, config);
      ADD_FAILURE() << "the cycle budget did not stop the run";
    } catch (const sim::CycleBudgetError& e) {
      failure.message = e.what();
    }
    return failure;
  };
  const Failure plain = fail(nullptr);
  telemetry::AggregatingSink sink;
  const Failure traced = fail(&sink);
  EXPECT_NE(plain.message.find("parallel execution"), std::string::npos)
      << plain.message;
  EXPECT_EQ(traced.message, plain.message);
  EXPECT_FALSE(plain.snapshot.empty());
  EXPECT_TRUE(traced.snapshot == plain.snapshot)
      << "the traced replay stopped in a different machine state";
  EXPECT_GT(sink.SimCount(telemetry::SimEventKind::kIssue), 0u)
      << "the sink must have traced the parallel run";
}

// ---- repro bundles --------------------------------------------------------

TEST(Repro, BundleRoundTripsThroughDisk) {
  harness::ReproBundle bundle;
  bundle.experiment = "fig12";
  bundle.label = "lammps-1 cores=2";
  bundle.point_index = 3;
  bundle.kernel_id = "lammps-1";
  bundle.kernel_source = "kernel demo { param n: i64; }\n";
  bundle.trip = 250;
  bundle.f64_params = {{"cutoff", 1.5}, {"scale", 0.3333333333333333}};
  bundle.config.compile.num_cores = 2;
  bundle.config.queue.capacity = 12;
  bundle.config.queue.transfer_latency = 9;
  bundle.config.seed = 0xDEADBEEFCAFEull;
  bundle.config.max_cycles = 1u << 20;
  bundle.failure_message = "memory mismatch in parallel codegen ...";
  bundle.snapshot = {0x66, 0x67, 0x00, 0xff, 0x10};

  const std::string dir = TempPath("repro_bundles");
  std::filesystem::remove_all(dir);
  const std::string path =
      harness::WriteReproBundle(dir, "repro_fig12_point3", bundle);
  EXPECT_EQ(path, (std::filesystem::path(dir) / "repro_fig12_point3").string());

  const harness::ReproBundle loaded = harness::LoadReproBundle(path);
  EXPECT_EQ(loaded.experiment, "fig12");
  EXPECT_EQ(loaded.label, bundle.label);
  EXPECT_EQ(loaded.point_index, 3u);
  EXPECT_EQ(loaded.kernel_id, "lammps-1");
  EXPECT_EQ(loaded.kernel_source, bundle.kernel_source);
  EXPECT_EQ(loaded.trip, 250);
  EXPECT_EQ(loaded.f64_params, bundle.f64_params);
  EXPECT_EQ(loaded.config.compile.num_cores, 2);
  EXPECT_EQ(loaded.config.queue.capacity, 12);
  EXPECT_EQ(loaded.config.queue.transfer_latency, 9);
  EXPECT_EQ(loaded.config.seed, 0xDEADBEEFCAFEull);
  EXPECT_EQ(loaded.config.max_cycles, 1u << 20);
  EXPECT_EQ(loaded.failure_message, bundle.failure_message);
  EXPECT_EQ(loaded.snapshot, bundle.snapshot);

  // A future-schema manifest is rejected, not misread.
  std::string manifest = ReadFile(path + "/manifest.json");
  manifest.replace(manifest.find("fgpar-repro-v1"), 14, "fgpar-repro-v9");
  WriteFile(path + "/manifest.json", manifest);
  EXPECT_THROW(harness::LoadReproBundle(path), Error);
  std::filesystem::remove_all(dir);
}

}  // namespace
