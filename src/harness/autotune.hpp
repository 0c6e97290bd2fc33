// The deterministic per-kernel autotuner: predict everything, simulate
// only the frontier (ROADMAP item 5; ComPar-style config search).
//
// A TuneSpace enumerates per-kernel configurations over the axes the paper
// explores — merge heuristic shape x core count x queue capacity x
// speculation.  Every enumerated point is scored with the analytical
// latency-hiding predictor (src/model/analytic.*) — a compile front half,
// no lowering, no simulation — and only the top-K predicted frontier
// (plus the default config, always) is simulated through the existing
// supervised sweep machinery.  The chosen config is the best *simulated*
// frontier member and is never worse than the default: the default is
// always simulated and only a strictly faster point replaces it.
//
// Everything is deterministic: the enumeration order is fixed, predictor
// scores are pure functions of the kernel + profile, ranking ties break
// toward the lower enumeration index, and every frontier simulation runs
// under the supervisor on the same seeded workload as the predictions.  Results
// are serialized as `fgpar-tune-v1` artifacts so tuned configs are
// addressable by tools (fgparc --autotune / --apply-tune).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/runner.hpp"
#include "ir/kernel.hpp"

namespace fgpar::harness {

/// One configuration in the search space.
struct TunePoint {
  int cores = 4;
  int queue_capacity = 20;
  bool speculation = false;
  /// Merge heuristic shape: 0 = single-pair affinity (the default),
  /// 1 = multi-pair merging, 2 = the throughput heuristic.
  int merge = 0;

  friend bool operator==(const TunePoint& a, const TunePoint& b) {
    return a.cores == b.cores && a.queue_capacity == b.queue_capacity &&
           a.speculation == b.speculation && a.merge == b.merge;
  }
};

/// "affinity" / "multi_pair" / "throughput"; throws on other values.
std::string_view MergeShapeName(int merge);
/// Parses a MergeShapeName back to its code; throws on unknown names.
int MergeShapeFromName(std::string_view name);

/// Deterministic human-readable label, e.g. "c4 q20 spec=0 merge=affinity".
std::string TunePointLabel(const TunePoint& point);

/// The per-kernel search space; Enumerate() yields points in fixed nested
/// order (cores, then capacities, then merges, then speculation).
struct TuneSpace {
  std::vector<int> core_counts{2, 3, 4};
  std::vector<int> queue_capacities{4, 8, 20};
  std::vector<int> merges{0, 1, 2};
  std::vector<bool> speculation{false, true};

  std::vector<TunePoint> Enumerate() const;
};

/// One enumerated point's full record.
struct TuneCandidate {
  std::size_t index = 0;  // enumeration order
  TunePoint point;
  bool feasible = false;           // predictor front-half compile succeeded
  double predicted_speedup = 0.0;  // 0 when infeasible
  bool simulated = false;          // point was in the simulated frontier
  double simulated_speedup = 0.0;  // 0 unless simulated successfully
  std::string note;                // infeasibility / failure reason, or ""
};

struct TuneOptions {
  /// Upper bound on the simulated share of the enumerated space.  The
  /// frontier size is max(1, floor(fraction * enumerated)), default in.
  double frontier_fraction = 0.25;
  /// The baseline config: always simulated, never beaten by a slower pick.
  TunePoint default_point;
  std::uint64_t seed = 0x5EED;  // workload seed for every predict and run
  int sweep_threads = 0;  // frontier simulation fan-out (<=0: resolve)
};

struct TuneResult {
  std::string kernel;
  std::vector<TuneCandidate> candidates;  // enumeration order
  std::size_t enumerated = 0;
  std::size_t frontier_size = 0;  // points picked for simulation
  std::size_t simulated = 0;      // simulations that produced a result
  std::size_t best_index = 0;     // chosen config (candidate index)
  std::size_t default_index = 0;
  double best_speedup = 0.0;     // simulated speedup of the chosen config
  double default_speedup = 0.0;  // simulated speedup of the default config
};

/// Runs the full predict-rank-simulate-choose loop for one kernel.
TuneResult AutotuneKernel(const ir::Kernel& kernel, const WorkloadInit& init,
                          const TuneSpace& space, const TuneOptions& options);

/// Applies a tune point's knobs onto a run configuration (compile cores,
/// merge shape, speculation, queue capacity; KernelRunner::Compile has the
/// deadlock checker assume that capacity).
RunConfig ApplyTunePoint(RunConfig base, const TunePoint& point);

/// The chosen config of a result.
const TunePoint& BestPoint(const TuneResult& result);

// ---- fgpar-tune-v1 artifact codec -----------------------------------------

inline constexpr char kTuneSchema[] = "fgpar-tune-v1";

/// Deterministic JSON rendering (every field is simulation-derived or
/// static; no host data enters the artifact).
std::string EncodeTuneArtifact(const TuneResult& result);

/// Parses an artifact back; throws fgpar::Error on wrong schema or shape.
TuneResult ParseTuneArtifact(std::string_view json);

}  // namespace fgpar::harness
