// The analytical latency-hiding speedup predictor (ROADMAP item 5).
//
// The paper evaluates every candidate partitioning by full simulation
// (Section III-I.1).  This model predicts per-iteration execution time
// from static features alone — the Table III catalog the compiler already
// computes (analysis::ExtractPartitionFeatures): per-partition compute
// cost, queue-op occupancy, cross-partition transfer counts, and cyclic
// inter-partition dependences.  In the spirit of the MLIR latency-hiding
// analysis (PAPERS.md), steady-state time is the max of two bounds:
//
//   * the throughput bound — the bottleneck partition's compute plus its
//     enqueue/dequeue pipeline occupancy (one-way transfers overlap with
//     compute: the consumer dequeues values the producer enqueued several
//     iterations ago, bounded by queue capacity);
//   * the serialization bound — partitions on a dependence cycle cannot
//     pipeline past each other: each iteration pays the cycle members'
//     compute plus a full transfer round trip per intra-cycle channel.
//
// Predicted speedup is the sequential per-iteration cost over that time;
// both sides carry the same per-iteration loop overhead so the ratio
// stays honest for small kernels.  The same math backs two consumers:
//
//   * AnalyticModel — a compiler::CostModel for the select stage
//     (`fgparc --cost-model analytic`), scoring candidates with zero
//     simulation;
//   * PredictKernel — the whole-kernel entry the autotuner and the
//     predictor-vs-simulated cross-validation bench use: run the rewrite
//     front half, merge statically, predict the chosen candidate.
//     WorkloadPredictor is its workload-grounded form, memoized so a
//     search over many options builds each shared step once.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "analysis/cost.hpp"
#include "analysis/profile.hpp"
#include "compiler/compile.hpp"
#include "compiler/cost_model.hpp"
#include "compiler/graph.hpp"
#include "compiler/merge.hpp"
#include "compiler/options.hpp"
#include "ir/kernel.hpp"
#include "ir/layout.hpp"

namespace fgpar::model {

/// Calibration constants.  Defaults mirror the simulator's hardware model
/// (sim/config.hpp): queue ops occupy one issue slot, transfers pay the
/// configured latency, and every iteration pays the loop bookkeeping
/// (induction bump + backedge).
struct AnalyticParams {
  double queue_op_cost = 1.0;
  double transfer_latency = 5.0;
  double loop_overhead = 2.0;

  /// Derives the parameters a compile's options imply.
  static AnalyticParams FromOptions(const compiler::CompileOptions& options);

  /// Parameters for execution-granularity costing (StmtOccupancy): the
  /// loop overhead grows to the full bookkeeping an iteration issues —
  /// induction bump, bound compare, taken backedge.
  static AnalyticParams ExecFromOptions(const compiler::CompileOptions& options);
};

struct Prediction {
  double sequential_cost = 0.0;  // per-iteration cycles on one core
  double parallel_cost = 0.0;    // predicted per-iteration cycles, partitioned
  double speedup = 1.0;          // sequential_cost / parallel_cost (overheads in)
  analysis::PartitionFeatures features;
};

/// The shared math: predicts from a feature vector.
Prediction PredictFromFeatures(const analysis::PartitionFeatures& features,
                               const AnalyticParams& params);

/// Builds the analysis-layer node/partition view of one candidate.
analysis::PartitionGraph BuildPartitionGraph(
    const compiler::CodeGraph& graph,
    const std::vector<compiler::MergedPartition>& partitions);

/// Predicts one candidate partitioning of an already-built code graph.
Prediction PredictCandidate(const compiler::CodeGraph& graph,
                            const std::vector<compiler::MergedPartition>& parts,
                            const AnalyticParams& params);

/// Whole-kernel prediction: applies the rewrite front half (split,
/// optional speculation, forwarding, fiberize), builds the code graph with
/// `profile` feedback (null = static L1 latencies), merges statically —
/// exactly the candidate a default (non-tuning) compile selects — and
/// predicts its speedup.  No lowering, no simulation.
Prediction PredictKernel(const ir::Kernel& kernel,
                         const compiler::CompileOptions& options,
                         const analysis::ProfileData* profile);

/// Workload-grounded whole-kernel prediction — the accurate variant the
/// autotuner and the cross-validation bench use.  Picks the identical
/// candidate PredictKernel picks (same rewrite + static merge trained on
/// `merge_profile`, the original-kernel per-symbol profile a compile
/// feeds its heuristics), but costs it at execution granularity:
///
///   * node costs come from analysis::CostModel::StmtOccupancy — issue
///     cycles included — with loads resolved against a fresh per-statement
///     profile of the REWRITTEN kernel, so dead code the pipeline removed
///     does not inflate (or warm the cache for) the parallel side;
///   * the sequential baseline is the per-iteration occupancy of the
///     kernel after a speculation-free rewrite (sequential code never
///     executes both arms, and its pipeline removes the same dead code),
///     under its own per-statement profile.
///
/// `layout`/`params`/`image` describe the prepared workload (the same
/// inputs KernelRunner interprets); layout and params are keyed by symbol
/// id, which every rewrite pass preserves.  Equal to
/// WorkloadPredictor(kernel, merge_profile, layout, params, image,
/// cache).Predict(options).
Prediction PredictKernelOnWorkload(const ir::Kernel& kernel,
                                   const compiler::CompileOptions& options,
                                   const analysis::ProfileData* merge_profile,
                                   const ir::DataLayout& layout,
                                   const ir::ParamEnv& params,
                                   const std::vector<std::uint64_t>& image,
                                   const sim::CacheConfig& cache);

/// PredictKernelOnWorkload over one prepared workload, memoized: each step
/// is computed once per the options it reads, and every Predict returns
/// the bits a fresh PredictKernelOnWorkload call returns (docs/INTERNALS.md
/// §14).
///
///   * the rewrite front half — rewritten kernel, KernelIndex, code graph
///     and the rewritten kernel's execution costs — once per
///     (max_expr_depth, speculation);
///   * the sequential baseline occupancy once per max_expr_depth;
///   * each Prediction once per its front-half key plus num_cores,
///     multi_pair_merge, throughput_heuristic, max_channels, the affinity
///     weights and scales, balance_cap and assumed_transfer_latency.
///
/// assumed_queue_capacity is in no key: nothing here reads it.  A step
/// that throws stores nothing, so the next call throws the same error.
/// Every argument must outlive the predictor.  Not thread-safe.
class WorkloadPredictor {
 public:
  WorkloadPredictor(const ir::Kernel& kernel,
                    const analysis::ProfileData* merge_profile,
                    const ir::DataLayout& layout, const ir::ParamEnv& params,
                    const std::vector<std::uint64_t>& image,
                    const sim::CacheConfig& cache);
  ~WorkloadPredictor();

  Prediction Predict(const compiler::CompileOptions& options);

 private:
  struct FrontHalf;
  using FrontHalfKey = std::tuple<int, bool>;
  using PredictionKey = std::tuple<FrontHalfKey, int, bool, bool, int, double,
                                   double, double, double, double, double, int>;

  FrontHalf& FrontHalfFor(const FrontHalfKey& key,
                          const compiler::CompileOptions& options);
  const std::vector<double>& NodeOccupancy(FrontHalf& front) const;
  double SequentialOccupancy(const compiler::CompileOptions& options);

  const ir::Kernel& kernel_;
  const analysis::ProfileData* merge_profile_;
  const ir::DataLayout& layout_;
  const ir::ParamEnv& params_;
  const std::vector<std::uint64_t>& image_;
  const sim::CacheConfig cache_;
  std::map<FrontHalfKey, std::unique_ptr<FrontHalf>> front_halves_;
  std::map<int, double> sequential_occupancy_;  // by max_expr_depth
  std::map<PredictionKey, Prediction> predictions_;
};

/// The select-stage cost model: scores each built candidate at its
/// predicted per-iteration parallel cost (lower wins), so multi-version
/// selection runs with zero training simulations.
class AnalyticModel final : public compiler::CostModel {
 public:
  std::string_view name() const override { return "analytic"; }
  compiler::ScoredCandidate Score(
      const compiler::CompileState& state, const isa::Program& program,
      const compiler::ProgramPlan& plan,
      const compiler::CoreAssignment& assignment) const override;
};

}  // namespace fgpar::model
