// Machine-readable bench artifacts (BENCH_*.json).
//
// Every experiment binary emits, next to its human-readable table, one
// JSON document describing the full result grid: one point per (kernel,
// machine configuration) pair with its deterministic simulation results
// (speedup, simulated cycles, instruction counts) and, separately, host
// measurements (wall-clock seconds, simulated instructions per host
// second).  The split matters: with host fields excluded, the document is
// a pure function of the experiment inputs — byte-identical across runs,
// hosts, and sweep thread counts — which is what the determinism tests
// assert.  Host fields are confined to the top-level "host" object and the
// per-point "host" objects so consumers (and tests) can strip them
// structurally.
//
// Schema "fgpar-bench-v1" (all keys in lexicographic order):
//   {
//     "schema": "fgpar-bench-v1",
//     "name": "<experiment>",            // e.g. "fig12"
//     "points": [
//       {
//         "label":    "<human label>",   // e.g. "lammps-1 cores=2"
//         "params":   { "<k>": "<v>", ... },   // configuration, strings
//         "metrics":  { "<k>": <double>, ... } // deterministic results
//         "counters": { "<k>": <uint64>, ... } // deterministic counts
//         "host":     { "<k>": <double>, ... } // wall-clock measurements
//       }, ...
//     ],
//     "host": {                          // whole-run host measurements
//       "sweep_threads": <int>,
//       "wall_seconds": <double>, ...
//     }
//   }
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/telemetry/sinks.hpp"

namespace fgpar::harness {

struct KernelRun;

struct BenchArtifact {
  struct Point {
    std::string label;
    std::map<std::string, std::string> params;
    std::map<std::string, double> metrics;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> host;
  };

  /// A quarantined grid point (see harness/supervisor.hpp): the point
  /// failed and is recorded instead of aborting the sweep.  The
  /// "failures" section is rendered only when non-empty, so clean-run
  /// artifacts are byte-identical to the pre-supervisor format.  All
  /// fields are deterministic (the bundle is referenced by name, not
  /// path, so artifacts from different scratch directories still match).
  struct Failure {
    std::string label;
    std::uint64_t index = 0;
    std::string message;
    std::string repro_bundle;  // emitted bundle name, or ""
  };

  std::string name;  // experiment id, also names the output file
  std::vector<Point> points;
  std::vector<Failure> failures;       // quarantined points, index order
  std::map<std::string, double> host;  // whole-run host measurements

  /// Renders the document.  With include_host=false the top-level "host"
  /// object and every point's "host" object are omitted, leaving only the
  /// deterministic portion.
  std::string ToJson(bool include_host = true) const;

  /// Writes BENCH_<name>.json into $FGPAR_BENCH_DIR (default: the current
  /// directory), creating the directory if it is missing, and returns the
  /// path written.  Throws fgpar::Error naming the path when the directory
  /// cannot be created or the file cannot be written.
  std::string WriteFile() const;
};

/// Fills a point's deterministic fields from one verified kernel run by
/// iterating the artifact-visible entries of KernelRunTelemetry's counter
/// registry: speedup, sequential/parallel cycles and instruction counts,
/// queue traffic, and the resilience counters.
void AddKernelRunFields(const KernelRun& run, BenchArtifact::Point& point);

/// Builds a "compile_<kernel>" artifact from one pipeline run's "pass"
/// telemetry spans (as captured by an AggregatingSink): one point per
/// pass, in pipeline order, with the IR sizes before/after and the pass's
/// own deterministic counters.  Per-pass wall time goes into each point's
/// "host" object and the pipeline total into the top-level "host" object,
/// so the deterministic portion stays byte-identical across runs and
/// hosts.
BenchArtifact MakeCompileStatsArtifact(
    const std::string& kernel, const std::string& pipeline,
    const std::vector<telemetry::SpanRecord>& pass_spans);

}  // namespace fgpar::harness
