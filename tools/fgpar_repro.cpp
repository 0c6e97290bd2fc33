// fgpar-repro — replays a quarantined-point repro bundle.
//
// Usage:
//   fgpar-repro <bundle-dir> [--trace <out.json>]
//
// A bundle (see harness/repro.hpp) holds the kernel source, the exact
// RunConfig of the failed point (seed, queue geometry, cycle budget), the
// recorded failure text, and the Machine::Snapshot() taken at the instant
// the measured sequential or parallel run failed.  This tool rebuilds the
// workload from the manifest, replays the verifying pipeline with the
// recorded configuration, and checks the failure reproduces bit-exactly:
//
//   * the replay must fail (a clean completion means no repro);
//   * the exception text must match the recorded failure message;
//   * the machine snapshot at failure must byte-compare equal to the
//     bundled snapshot.bin (skipped when the bundle has no snapshot,
//     e.g. for failures outside a measured run).
//
// Exit code 0 and a final "reproduced" line when all checks pass; exit 1
// otherwise, with the mismatch on stderr.
//
// --trace <out.json> additionally captures the replay as a Chrome
// trace_event file — compile pass spans plus the parallel run's
// per-core issue, queue, and stall events — written whether or not the
// failure reproduces, so "what was the machine doing when it died" is
// inspectable at ui.perfetto.dev.  Tracing runs the parallel machine in
// the slow loop, which stops at a cycle budget in the same state as the
// fast loop, so a traced replay reproduces whatever a plain one does.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/repro.hpp"
#include "harness/runner.hpp"
#include "kernels/sequoia.hpp"
#include "support/buildinfo.hpp"
#include "support/error.hpp"
#include "support/telemetry/sinks.hpp"

int main(int argc, char** argv) {
  using namespace fgpar;

  std::string bundle_dir;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--version") == 0) {
      std::printf("fgpar-repro %s config %s\n", BuildVersionString().c_str(),
                  BuildConfigHashHex().c_str());
      return 0;
    } else if (std::strcmp(arg, "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace_path = arg + 8;
    } else if (bundle_dir.empty() && arg[0] != '-') {
      bundle_dir = arg;
    } else {
      bundle_dir.clear();
      break;
    }
  }
  if (bundle_dir.empty()) {
    std::fprintf(stderr, "usage: fgpar-repro <bundle-dir> [--trace <out.json>]\n");
    return 2;
  }

  try {
    const harness::ReproBundle bundle =
        harness::LoadReproBundle(bundle_dir);
    std::printf("bundle: %s point %llu (%s)\n", bundle.experiment.c_str(),
                static_cast<unsigned long long>(bundle.point_index),
                bundle.label.c_str());
    std::printf("kernel: %s (trip %lld), seed 0x%llx\n",
                bundle.kernel_id.c_str(),
                static_cast<long long>(bundle.trip),
                static_cast<unsigned long long>(bundle.config.seed));
    std::printf("recorded failure: %s\n", bundle.failure_message.c_str());

    kernels::SequoiaKernel kernel;
    kernel.id = bundle.kernel_id;
    kernel.source = bundle.kernel_source;
    kernel.trip = bundle.trip;
    kernel.f64_params = bundle.f64_params;

    harness::RunConfig config = bundle.config;
    // Capture the machine state at the failing run.
    std::vector<std::uint8_t> replay_snapshot;
    config.on_failure = [&](const sim::Machine& machine, const Error&) {
      replay_snapshot = machine.Snapshot();
    };
    telemetry::ChromeTraceSink trace_sink;
    if (!trace_path.empty()) {
      config.telemetry = &trace_sink;
    }

    const ir::Kernel parsed = kernels::ParseSequoia(kernel);
    harness::KernelRunner runner(parsed, kernels::SequoiaInit(kernel));

    std::string replay_message;
    bool replay_failed = false;
    try {
      (void)runner.Run(config);
    } catch (const Error& e) {
      replay_failed = true;
      replay_message = e.what();
    }
    // The trace covers the replay up to (and including) the failure; it
    // is written even when the repro checks below fail — a diverging
    // replay is exactly when you want to see what the machine did.
    if (!trace_path.empty()) {
      trace_sink.WriteFile(trace_path);
      std::printf("trace written: %s (open at ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
    if (!replay_failed) {
      std::fprintf(stderr,
                   "NOT reproduced: the replay completed without failing\n");
      return 1;
    }

    bool ok = true;
    if (replay_message != bundle.failure_message) {
      std::fprintf(stderr,
                   "NOT reproduced: failure text differs\n  recorded: %s\n"
                   "  replayed: %s\n",
                   bundle.failure_message.c_str(), replay_message.c_str());
      ok = false;
    }
    if (!bundle.snapshot.empty() && replay_snapshot != bundle.snapshot) {
      std::fprintf(stderr,
                   "NOT reproduced: machine snapshot at failure differs "
                   "(recorded %zu bytes, replayed %zu bytes)\n",
                   bundle.snapshot.size(), replay_snapshot.size());
      ok = false;
    }
    if (!ok) {
      return 1;
    }
    std::printf("reproduced: failure text%s match the recorded run\n",
                bundle.snapshot.empty() ? "" : " and machine snapshot");
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "fgpar-repro: %s\n", e.what());
    return 2;
  }
}
