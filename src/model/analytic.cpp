#include "model/analytic.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "analysis/index.hpp"
#include "compiler/partition.hpp"
#include "support/error.hpp"

namespace fgpar::model {

namespace {

/// Deterministic two-decimal rendering for explanation lines.
std::string Fixed2(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.2f", value);
  return buffer;
}

/// `kernel` after the rewrite front half (split, optional speculation,
/// forwarding, fiberize).
compiler::PartitionResult Rewritten(const ir::Kernel& kernel,
                                    const compiler::CompileOptions& options) {
  compiler::PartitionResult result(kernel);
  compiler::ApplyRewritePasses(result, options);
  return result;
}

}  // namespace

AnalyticParams AnalyticParams::FromOptions(
    const compiler::CompileOptions& options) {
  AnalyticParams params;
  params.transfer_latency =
      static_cast<double>(options.assumed_transfer_latency);
  const sim::CoreTiming timing{};
  params.queue_op_cost = static_cast<double>(timing.queue_op);
  params.loop_overhead =
      static_cast<double>(timing.int_alu + timing.branch);
  return params;
}

AnalyticParams AnalyticParams::ExecFromOptions(
    const compiler::CompileOptions& options) {
  AnalyticParams params = FromOptions(options);
  const sim::CoreTiming timing{};
  // Induction bump + bound compare + taken backedge, every iteration.
  params.loop_overhead = static_cast<double>(
      2 * timing.int_alu + timing.branch + timing.taken_branch_penalty);
  return params;
}

Prediction PredictFromFeatures(const analysis::PartitionFeatures& features,
                               const AnalyticParams& params) {
  Prediction prediction;
  prediction.features = features;
  prediction.sequential_cost = features.total_cost + params.loop_overhead;
  if (features.partitions <= 1 || features.total_cost <= 0.0) {
    prediction.parallel_cost = prediction.sequential_cost;
    prediction.speedup = 1.0;
    return prediction;
  }
  // Steady-state per-iteration time: the throughput bound (bottleneck
  // partition's compute + queue-op occupancy; one-way transfers overlap
  // across pipelined iterations) or the serialization bound (partitions on
  // a dependence cycle pay their compute plus a round trip every
  // iteration), whichever binds.
  const double steady =
      std::max(features.bottleneck_cost, features.cycle_penalty);
  prediction.parallel_cost = steady + params.loop_overhead;
  prediction.speedup = prediction.sequential_cost / prediction.parallel_cost;
  return prediction;
}

analysis::PartitionGraph BuildPartitionGraph(
    const compiler::CodeGraph& graph,
    const std::vector<compiler::MergedPartition>& partitions) {
  std::map<ir::StmtId, int> part_of;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    for (ir::StmtId stmt : partitions[p].stmts) {
      part_of[stmt] = static_cast<int>(p);
    }
  }
  analysis::PartitionGraph out;
  out.node_cost.reserve(graph.nodes.size());
  out.node_part.reserve(graph.nodes.size());
  for (const compiler::GraphNode& node : graph.nodes) {
    out.node_cost.push_back(node.cost);
    FGPAR_CHECK_MSG(!node.stmts.empty(), "code-graph node with no statements");
    const auto it = part_of.find(node.stmts.front());
    FGPAR_CHECK_MSG(it != part_of.end(),
                    "code-graph node not covered by the candidate partitioning");
    out.node_part.push_back(it->second);
  }
  for (const compiler::DepEdge& edge : graph.edges) {
    const int u = graph.NodeOf(edge.producer);
    const int v = graph.NodeOf(edge.consumer);
    if (u != v) {
      out.edges.push_back({u, v});
    }
  }
  return out;
}

Prediction PredictCandidate(const compiler::CodeGraph& graph,
                            const std::vector<compiler::MergedPartition>& parts,
                            const AnalyticParams& params) {
  const analysis::PartitionGraph view = BuildPartitionGraph(graph, parts);
  const analysis::PartitionFeatures features = analysis::ExtractPartitionFeatures(
      view, params.transfer_latency, params.queue_op_cost);
  return PredictFromFeatures(features, params);
}

Prediction PredictKernel(const ir::Kernel& kernel,
                         const compiler::CompileOptions& options,
                         const analysis::ProfileData* profile) {
  compiler::PartitionResult rewritten(kernel);
  compiler::ApplyRewritePasses(rewritten, options);
  const analysis::KernelIndex index(rewritten.kernel);
  const analysis::CostModel cost(sim::CoreTiming{}, sim::CacheConfig{},
                                 profile);
  const compiler::CodeGraph graph = compiler::BuildCodeGraph(index, cost);
  const std::vector<compiler::MergedPartition> chosen =
      compiler::MergeGraph(graph, options);
  return PredictCandidate(graph, chosen, AnalyticParams::FromOptions(options));
}

Prediction PredictKernelOnWorkload(const ir::Kernel& kernel,
                                   const compiler::CompileOptions& options,
                                   const analysis::ProfileData* merge_profile,
                                   const ir::DataLayout& layout,
                                   const ir::ParamEnv& params,
                                   const std::vector<std::uint64_t>& image,
                                   const sim::CacheConfig& cache) {
  return WorkloadPredictor(kernel, merge_profile, layout, params, image, cache)
      .Predict(options);
}

/// The candidate a compile picks is merged from this graph: the same
/// rewrite front half, trained on the same profile the compiler trains on.
struct WorkloadPredictor::FrontHalf {
  FrontHalf(const ir::Kernel& kernel, const compiler::CompileOptions& options,
            const analysis::CostModel& merge_cost)
      : rewritten(Rewritten(kernel, options)),
        index(rewritten.kernel),
        graph(compiler::BuildCodeGraph(index, merge_cost)) {}

  compiler::PartitionResult rewritten;
  const analysis::KernelIndex index;  // points into rewritten.kernel
  const compiler::CodeGraph graph;
  /// Each graph node's execution-granularity cost; built after the first
  /// merge over this front half succeeds (NodeOccupancy).
  std::optional<std::vector<double>> node_occupancy;
};

WorkloadPredictor::WorkloadPredictor(const ir::Kernel& kernel,
                                     const analysis::ProfileData* merge_profile,
                                     const ir::DataLayout& layout,
                                     const ir::ParamEnv& params,
                                     const std::vector<std::uint64_t>& image,
                                     const sim::CacheConfig& cache)
    : kernel_(kernel),
      merge_profile_(merge_profile),
      layout_(layout),
      params_(params),
      image_(image),
      cache_(cache) {}

WorkloadPredictor::~WorkloadPredictor() = default;

WorkloadPredictor::FrontHalf& WorkloadPredictor::FrontHalfFor(
    const FrontHalfKey& key, const compiler::CompileOptions& options) {
  auto it = front_halves_.find(key);
  if (it == front_halves_.end()) {
    const analysis::CostModel merge_cost(sim::CoreTiming{}, cache_,
                                         merge_profile_);
    it = front_halves_
             .emplace(key, std::make_unique<FrontHalf>(kernel_, options,
                                                        merge_cost))
             .first;
  }
  return *it->second;
}

const std::vector<double>& WorkloadPredictor::NodeOccupancy(
    FrontHalf& front) const {
  if (!front.node_occupancy.has_value()) {
    // Execution profile at per-statement granularity of the code that
    // actually runs (the rewritten kernel: dead statements are gone on
    // both sides — the sequential pipeline applies the same scalar
    // rewrites).  Costs are frequency-weighted, so rarely-taken
    // conditional arms charge their taken fraction.
    const analysis::ProfileData profile = analysis::ProfileData::Collect(
        front.rewritten.kernel, layout_, params_, image_, cache_);
    const analysis::CostModel cost(sim::CoreTiming{}, cache_, &profile);
    std::vector<double> occupancy;
    occupancy.reserve(front.graph.nodes.size());
    for (const compiler::GraphNode& node : front.graph.nodes) {
      double total = 0.0;
      for (ir::StmtId id : node.stmts) {
        const ir::Stmt& stmt = *front.index.ByStmtId(id).stmt;
        total += profile.StmtFrequency(id) *
                 cost.StmtOccupancy(front.rewritten.kernel, stmt);
      }
      occupancy.push_back(total);
    }
    front.node_occupancy = std::move(occupancy);
  }
  return *front.node_occupancy;
}

double WorkloadPredictor::SequentialOccupancy(
    const compiler::CompileOptions& options) {
  const auto it = sequential_occupancy_.find(options.max_expr_depth);
  if (it != sequential_occupancy_.end()) {
    return it->second;
  }
  // The same live statements on one core, under a speculation-free
  // rewrite (sequential code never executes both arms) with its own
  // execution profile — one cache serving every access.
  compiler::CompileOptions seq_options = options;
  seq_options.speculation = false;
  const compiler::PartitionResult seq_rewritten =
      Rewritten(kernel_, seq_options);
  const analysis::ProfileData seq_profile = analysis::ProfileData::Collect(
      seq_rewritten.kernel, layout_, params_, image_, cache_);
  const analysis::CostModel seq_cost(sim::CoreTiming{}, cache_, &seq_profile);
  const std::function<double(const std::vector<ir::Stmt>&)> body_occupancy =
      [&](const std::vector<ir::Stmt>& body) {
        double total = 0.0;
        for (const ir::Stmt& stmt : body) {
          total += seq_profile.StmtFrequency(stmt.id) *
                   seq_cost.StmtOccupancy(seq_rewritten.kernel, stmt);
          if (stmt.kind == ir::StmtKind::kIf) {
            total += body_occupancy(stmt.then_body);
            total += body_occupancy(stmt.else_body);
          }
        }
        return total;
      };
  const double occupancy = body_occupancy(seq_rewritten.kernel.loop().body);
  sequential_occupancy_.emplace(options.max_expr_depth, occupancy);
  return occupancy;
}

Prediction WorkloadPredictor::Predict(const compiler::CompileOptions& options) {
  const FrontHalfKey front_key{options.max_expr_depth, options.speculation};
  const PredictionKey key{front_key,
                          options.num_cores,
                          options.multi_pair_merge,
                          options.throughput_heuristic,
                          options.max_channels,
                          options.w_deps,
                          options.w_cost,
                          options.w_prox,
                          options.cost_scale,
                          options.line_scale,
                          options.balance_cap,
                          options.assumed_transfer_latency};
  if (const auto it = predictions_.find(key); it != predictions_.end()) {
    return it->second;
  }
  FrontHalf& front = FrontHalfFor(front_key, options);
  const std::vector<compiler::MergedPartition> chosen =
      compiler::MergeGraph(front.graph, options);

  // Re-cost the chosen candidate's nodes at execution granularity before
  // extracting the feature vector the steady-state bounds come from.
  analysis::PartitionGraph view = BuildPartitionGraph(front.graph, chosen);
  view.node_cost = NodeOccupancy(front);
  const AnalyticParams exec = AnalyticParams::ExecFromOptions(options);
  const analysis::PartitionFeatures features =
      analysis::ExtractPartitionFeatures(view, exec.transfer_latency,
                                         exec.queue_op_cost);
  Prediction prediction = PredictFromFeatures(features, exec);
  prediction.sequential_cost =
      SequentialOccupancy(options) + exec.loop_overhead;
  if (features.partitions > 1 && prediction.parallel_cost > 0.0) {
    prediction.speedup =
        prediction.sequential_cost / prediction.parallel_cost;
  }
  predictions_.emplace(key, prediction);
  return prediction;
}

compiler::ScoredCandidate AnalyticModel::Score(
    const compiler::CompileState& state, const isa::Program& program,
    const compiler::ProgramPlan& plan,
    const compiler::CoreAssignment& assignment) const {
  (void)program;
  (void)plan;
  FGPAR_CHECK_MSG(state.graph.has_value(),
                  "analytic cost model requires the graph stage");
  // Rebuild the candidate's partition view from the core assignment (the
  // select stage hands us the assignment, not the MergedPartition list;
  // the mapping is the same statement -> partition function).
  std::vector<compiler::MergedPartition> parts(assignment.partitions.size());
  for (std::size_t p = 0; p < assignment.partitions.size(); ++p) {
    parts[p].stmts = assignment.partitions[p];
  }
  const AnalyticParams params = AnalyticParams::FromOptions(state.options);
  const Prediction prediction =
      PredictCandidate(*state.graph, parts, params);
  compiler::ScoredCandidate scored;
  scored.cost = prediction.parallel_cost;
  scored.detail = "predicted " + Fixed2(prediction.parallel_cost) +
                  " cycles/iter (seq " + Fixed2(prediction.sequential_cost) +
                  ", speedup " + Fixed2(prediction.speedup) + ")";
  const analysis::PartitionFeatures& f = prediction.features;
  scored.features = {
      {"partitions", static_cast<double>(f.partitions)},
      {"total_cost", f.total_cost},
      {"max_part_cost", f.max_part_cost},
      {"balance_ratio", f.balance_ratio},
      {"transfers", static_cast<double>(f.transfers)},
      {"queue_cost_max", f.queue_cost_max},
      {"bottleneck_cost", f.bottleneck_cost},
      {"critical_path", f.critical_path},
      {"scc_partitions", static_cast<double>(f.scc_partitions)},
      {"cycle_penalty", f.cycle_penalty},
      {"predicted_speedup", prediction.speedup},
  };
  return scored;
}

}  // namespace fgpar::model
