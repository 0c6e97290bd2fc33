// Self-contained repro bundles for quarantined sweep failures.
//
// When the sweep supervisor quarantines a grid point, the experiment
// binary emits one directory holding everything needed to replay the
// failure on any machine with this toolchain — no access to the original
// sweep, scratch directory, or host required:
//
//   <dir>/<name>/
//     kernel.fk      — the kernel source text, verbatim
//     manifest.json  — schema "fgpar-repro-v1": kernel identity and
//                      workload parameters (trip, fixed f64 params), the
//                      RunConfig fields the run deviated from defaults on
//                      (cores, queue geometry, seed, cycle budget), and the
//                      recorded failure
//     snapshot.bin   — Machine::Snapshot() of the failed sequential or
//                      parallel machine, taken at the exact failure point
//                      (empty when the failure happened outside a measured
//                      run, e.g. at compile time)
//
// `fgpar-repro <dir>` (tools/fgpar_repro.cpp) replays the bundle through
// the full verifying pipeline with the recorded configuration and reports
// whether the recorded failure reproduces bit-exactly, comparing both the
// exception text and the machine snapshot at failure.
//
// The manifest stores only fields the harness round-trips explicitly
// (schema v1); RunConfig fields not listed above are assumed to be at
// their defaults, which holds for every experiment binary in bench/.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.hpp"

namespace fgpar::harness {

struct ReproBundle {
  // Provenance.
  std::string experiment;  // e.g. "fig12"
  std::string label;       // grid-point label
  std::uint64_t point_index = 0;

  // Workload: kernel source plus the standard-initializer parameters.
  std::string kernel_id;
  std::string kernel_source;
  std::int64_t trip = 400;
  std::map<std::string, double> f64_params;

  // The run configuration (seed included; see header comment for which
  // fields travel).
  RunConfig config;

  // The recorded failure.
  std::string failure_message;

  // Machine::Snapshot() of the failed measured run (empty when the failure
  // happened outside one, e.g. at compile time).
  std::vector<std::uint8_t> snapshot;
};

/// Writes `<dir>/<name>/{kernel.fk,manifest.json,snapshot.bin}` (creating
/// directories) and returns the bundle directory path.
std::string WriteReproBundle(const std::string& dir, const std::string& name,
                             const ReproBundle& bundle);

/// Loads a bundle directory; throws fgpar::Error on a missing file, a
/// schema mismatch, or a malformed manifest.
ReproBundle LoadReproBundle(const std::string& dir);

}  // namespace fgpar::harness
