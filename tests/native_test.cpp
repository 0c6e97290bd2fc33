// End-to-end tests for the native execution backend: every Sequoia kernel
// must run for real on host threads and leave memory bit-identical to the
// reference interpreter, with the sim results (and their artifact schema)
// untouched.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "compiler/backend.hpp"
#include "compiler/compile.hpp"
#include "frontend/parser.hpp"
#include "harness/runner.hpp"
#include "kernels/experiments.hpp"
#include "kernels/sequoia.hpp"
#include "native/codegen.hpp"
#include "native/executor.hpp"
#include "sim/config.hpp"
#include "support/error.hpp"
#include "support/telemetry/telemetry.hpp"

namespace fgpar {
namespace {

TEST(BackendKind, NamesRoundTripAndUnknownNamesThrow) {
  EXPECT_EQ(compiler::BackendKindName(compiler::BackendKind::kSim), "sim");
  EXPECT_EQ(compiler::BackendKindName(compiler::BackendKind::kNative),
            "native");
  EXPECT_EQ(compiler::ParseBackendKind("sim"), compiler::BackendKind::kSim);
  EXPECT_EQ(compiler::ParseBackendKind("native"),
            compiler::BackendKind::kNative);
  EXPECT_THROW((void)compiler::ParseBackendKind("gpu"), Error);
  EXPECT_THROW((void)compiler::ParseBackendKind(""), Error);
}

TEST(RunTier, ParsesTwoNamesAndRejectsOthers) {
  EXPECT_EQ(sim::ParseRunTier("auto"), sim::RunTier::kAuto);
  EXPECT_EQ(sim::ParseRunTier("slow"), sim::RunTier::kSlow);
  for (const char* bad : {"fast", "threaded", ""}) {
    try {
      (void)sim::ParseRunTier(bad);
      ADD_FAILURE() << "'" << bad << "' parsed as a run tier";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("expected auto or slow"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(NativeBackend, AllSequoiaKernelsVerifyBitExact) {
  // The acceptance bar for the backend: all 18 Table-I kernels execute on
  // real threads — sequential closures and the partitioned plan over SPSC
  // rings — and both memories match the golden interpreter bit-for-bit.
  kernels::ExperimentConfig config;
  config.cores = 4;
  config.backend = compiler::BackendKind::kNative;
  const std::vector<harness::KernelRun> runs = kernels::RunAllKernels(config);
  ASSERT_EQ(runs.size(), kernels::SequoiaKernels().size());
  for (const harness::KernelRun& run : runs) {
    EXPECT_TRUE(run.native_run) << run.kernel_name;
    EXPECT_TRUE(run.native_verified) << run.kernel_name;
    EXPECT_GT(run.native_seq_seconds, 0.0) << run.kernel_name;
    EXPECT_GT(run.native_par_seconds, 0.0) << run.kernel_name;
    EXPECT_GT(run.native_speedup, 0.0) << run.kernel_name;
    EXPECT_GT(run.native_cores, 1) << run.kernel_name;
    // Every partition communicates at least its completion token, so a
    // zero here means the rings were bypassed, not that the kernel was
    // communication-free.
    EXPECT_GT(run.native_queue_transfers, 0u) << run.kernel_name;
    EXPECT_GT(run.native_rings_used, 0) << run.kernel_name;
    // The simulated measurement must be exactly what a sim-backend run
    // produces — the native pass rides alongside, it never replaces.
    EXPECT_GT(run.speedup, 0.0) << run.kernel_name;
  }
}

TEST(NativeBackend, TinyRingCapacityStillVerifies) {
  // Capacity 2 forces constant producer/consumer blocking in the real
  // run — the strongest in-situ exercise of the ring's blocking
  // semantics.  Correctness must not depend on queue sizing.
  kernels::ExperimentConfig config;
  config.cores = 4;
  config.queue_capacity = 2;
  config.backend = compiler::BackendKind::kNative;
  const harness::KernelRun run =
      kernels::RunKernel(kernels::SequoiaKernelById("irs-1"), config);
  EXPECT_TRUE(run.native_run);
  EXPECT_TRUE(run.native_verified);
}

TEST(NativeBackend, SimRunsCarryNoNativeArtifactEntries) {
  // Historical BENCH_*.json bytes are golden-guarded: a sim-backend run's
  // artifact-visible registry must not grow native.* keys.
  kernels::ExperimentConfig config;
  config.cores = 2;
  const harness::KernelRun run =
      kernels::RunKernel(kernels::SequoiaKernels()[0], config);
  EXPECT_FALSE(run.native_run);
  const telemetry::CounterRegistry registry = harness::KernelRunTelemetry(run);
  registry.ForEachArtifactCount([](const std::string& name, std::uint64_t) {
    EXPECT_EQ(name.find("native."), std::string::npos) << name;
  });
  registry.ForEachArtifactMetric([](const std::string& name, double) {
    EXPECT_EQ(name.find("native."), std::string::npos) << name;
  });
}

TEST(NativeBackend, NativeRunsRegisterDeterministicCounters) {
  // Native runs add deterministic counts (verification flag, ring traffic,
  // topology) to the artifact schema; the wall-clock seconds stay
  // host-only (artifact-invisible metrics), so BENCH_native.json's
  // deterministic portion is still a pure function of the inputs.
  kernels::ExperimentConfig config;
  config.cores = 4;
  config.backend = compiler::BackendKind::kNative;
  const harness::KernelRun run =
      kernels::RunKernel(kernels::SequoiaKernels()[0], config);
  ASSERT_TRUE(run.native_run);
  const telemetry::CounterRegistry registry = harness::KernelRunTelemetry(run);
  std::vector<std::string> counts;
  registry.ForEachArtifactCount(
      [&counts](const std::string& name, std::uint64_t) {
        if (name.rfind("native.", 0) == 0) {
          counts.push_back(name);
        }
      });
  EXPECT_EQ(counts, (std::vector<std::string>{
                        "native.cores", "native.queue_transfers",
                        "native.rings_used", "native.verified"}));
  registry.ForEachArtifactMetric([](const std::string& name, double) {
    EXPECT_EQ(name.find("native."), std::string::npos) << name;
  });
}

TEST(NativeExecutor, WatchdogAbortsCleanlyWhenOneWorkerWedges) {
  // The hang-hardening drill: one worker wedges (alive, never touching its
  // rings), so the cooperative abort flag alone would never fire and the
  // historical behaviour was an infinite hang behind a blocking ring wait.
  // With a wait deadline armed the run must (a) surface a structured
  // RingStallError, (b) release the wedged worker via the abort flag, and
  // (c) join every thread and return well within the test's own deadline.
  ir::Kernel kernel = frontend::ParseKernel(R"(
kernel wedge {
  param i64 n;
  param f64 c;
  array f64 a[32];
  array f64 o1[32];
  array f64 o2[32];
  loop i = 0 .. n {
    o1[i] = a[i] * c + 1.0;
    o2[i] = sqrt(abs(a[i])) - c;
  }
}
)");
  const ir::DataLayout layout(kernel);
  compiler::CompileOptions options;
  options.num_cores = 2;
  const compiler::CompiledParallel compiled =
      compiler::CompileParallel(kernel, layout, options);
  ASSERT_GE(compiled.cores_used, 2);

  ir::ParamEnv params(kernel);
  for (const ir::Symbol& sym : kernel.symbols()) {
    if (sym.name == "n") {
      params.SetI64(sym.id, 16);
    } else if (sym.name == "c") {
      params.SetF64(sym.id, 1.5);
    }
  }
  const std::vector<std::uint64_t> params_raw =
      native::RawParams(kernel, params);
  std::vector<std::uint64_t> memory(layout.end(), 0);

  std::atomic<bool> wedge_saw_abort{false};
  native::NativeExecOptions exec;
  exec.ring_wait_timeout_ms = 200;
  exec.wedge_hook = [&wedge_saw_abort](int core,
                                       const std::atomic<bool>& aborted) {
    if (core != 1) {
      return;  // every other worker runs normally
    }
    // Wedged-but-alive: consume the thread until the watchdog aborts the
    // run.  A real wedge would never return; this one must, to prove the
    // abort flag actually reaches it.
    while (!aborted.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    wedge_saw_abort.store(true, std::memory_order_relaxed);
  };

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(native::ExecuteNative(compiled.lowered(), params_raw, memory,
                                     exec),
               native::RingStallError);
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(wedge_saw_abort.load(std::memory_order_relaxed));
  // ExecuteNative joins all threads before rethrowing; if the watchdog or
  // the abort propagation regressed, this blows past the bound (or the
  // EXPECT_THROW above hangs the suite, which CI's timeout catches).
  EXPECT_LT(elapsed.count(), 30);
}

TEST(NativeExecutor, WatchdogStaysQuietOnAHealthyRun) {
  // The same deadline must be invisible when everyone is live: a normal
  // 2-core run with a tight (but sane) watchdog completes and verifies.
  kernels::ExperimentConfig config;
  config.cores = 2;
  config.backend = compiler::BackendKind::kNative;
  const harness::KernelRun run =
      kernels::RunKernel(kernels::SequoiaKernels()[0], config);
  EXPECT_TRUE(run.native_run);
  EXPECT_TRUE(run.native_verified);
}

}  // namespace
}  // namespace fgpar
