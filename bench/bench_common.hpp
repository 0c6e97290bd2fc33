// Shared helpers for the experiment binaries: timed kernel runs, artifact
// point construction, and flag parsing.
//
// Conventions the binaries follow:
//  * the human-readable table goes to stdout, byte-identical across sweep
//    thread counts;
//  * the machine-readable BENCH_<name>.json artifact is written via
//    harness::BenchArtifact::WriteFile, and the path is reported on
//    stderr so stdout stays clean for diffing.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>

#include "harness/bench_artifact.hpp"
#include "harness/sweep.hpp"
#include "kernels/experiments.hpp"

namespace fgpar::benchutil {

inline bool HasFlag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) {
      return true;
    }
  }
  return false;
}

/// Returns the operand of `--flag value`, or `fallback` when absent.
inline std::string FlagValue(int argc, char** argv, std::string_view flag,
                             const std::string& fallback = "") {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) {
      return argv[i + 1];
    }
  }
  return fallback;
}

inline long long FlagInt(int argc, char** argv, std::string_view flag,
                         long long fallback) {
  const std::string text = FlagValue(argc, argv, flag);
  return text.empty() ? fallback : std::stoll(text);
}

/// One kernel pipeline execution plus its host wall-clock cost.
struct TimedRun {
  harness::KernelRun run;
  double wall_seconds = 0.0;
};

inline TimedRun TimedKernelRun(const kernels::SequoiaKernel& kernel,
                               const kernels::ExperimentConfig& config) {
  TimedRun timed;
  const auto start = std::chrono::steady_clock::now();
  timed.run = kernels::RunKernel(kernel, config);
  timed.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return timed;
}

/// Builds one artifact point from a timed run.  `params` describes the
/// configuration axes of the grid point ("cores", "transfer_latency", ...);
/// the label is "<kernel> k=v ..." over the (sorted) params.
inline harness::BenchArtifact::Point MakePoint(
    const TimedRun& timed, std::map<std::string, std::string> params) {
  harness::BenchArtifact::Point point;
  point.label = timed.run.kernel_name;
  for (const auto& [key, value] : params) {
    point.label += " " + key + "=" + value;
  }
  point.params = std::move(params);
  point.params["kernel"] = timed.run.kernel_name;
  harness::AddKernelRunFields(timed.run, point);
  point.host["wall_seconds"] = timed.wall_seconds;
  if (timed.wall_seconds > 0.0) {
    point.host["sim_instr_per_s"] =
        static_cast<double>(timed.run.seq_instructions +
                            timed.run.par_instructions) /
        timed.wall_seconds;
  }
  return point;
}

/// Writes the artifact and reports the path on stderr.
inline void EmitArtifact(const harness::BenchArtifact& artifact) {
  const std::string path = artifact.WriteFile();
  std::fprintf(stderr, "wrote %s (%zu points)\n", path.c_str(),
               artifact.points.size());
}

}  // namespace fgpar::benchutil
