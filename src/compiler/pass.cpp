#include "compiler/pass.hpp"

#include <algorithm>
#include <cmath>

#include "compiler/check.hpp"
#include "compiler/cost_model.hpp"
#include "compiler/lower.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace fgpar::compiler {

void CompileState::Note(const std::string& key, std::int64_t value) {
  if (current_counters != nullptr) {
    (*current_counters)[key] = value;
  }
}

void Pass::CheckInvariants(const CompileState& state) const {
  (void)state;  // no invariants by default
}

namespace {

/// Builds the KernelIndex, the CostModel, and the code graph (Section
/// III-B) from the fully rewritten kernel.  Later stages read all three
/// from the state.
class GraphPass final : public Pass {
 public:
  const char* name() const override { return "graph"; }
  const char* description() const override {
    return "build the code graph: KernelIndex + CostModel + fused "
           "dependence graph (Section III-B)";
  }
  void Run(CompileState& state) override {
    state.index.emplace(state.kernel());
    state.cost.emplace(sim::CoreTiming{}, sim::CacheConfig{},
                       state.options.use_profile ? state.profile : nullptr);
    state.graph.emplace(BuildCodeGraph(*state.index, *state.cost));
    state.partition.data_deps = state.graph->data_dep_count;
    state.Note("graph_nodes",
               static_cast<std::int64_t>(state.graph->nodes.size()));
    state.Note("dep_edges",
               static_cast<std::int64_t>(state.graph->edges.size()));
    state.Note("data_deps", state.graph->data_dep_count);
  }
  void CheckInvariants(const CompileState& state) const override {
    FGPAR_CHECK_MSG(state.graph.has_value() && state.index.has_value(),
                    "graph stage left no code graph in the state");
  }
};

/// Merges the code graph into candidate partitionings.  With a cost model
/// the full Section III-I.1 candidate set is enumerated for per-candidate
/// scoring; without one, the static heuristics produce the single best
/// merge.
class MergePass final : public Pass {
 public:
  const char* name() const override { return "merge"; }
  const char* description() const override {
    return "merge the code graph into candidate partitionings "
           "(Section III-B heuristics; III-I.1 multi-version set)";
  }
  void Run(CompileState& state) override {
    FGPAR_CHECK_MSG(state.graph.has_value(),
                    "merge stage requires the graph stage");
    state.candidates =
        state.cost_model != nullptr
            ? EnumerateCandidates(*state.graph, state.options)
            : std::vector<std::vector<MergedPartition>>{
                  MergeGraph(*state.graph, state.options)};
    state.Note("candidates",
               static_cast<std::int64_t>(state.candidates.size()));
  }
  void CheckInvariants(const CompileState& state) const override {
    FGPAR_CHECK_MSG(!state.candidates.empty(),
                    "merge stage produced no candidate partitionings");
  }
};

/// The multi-version candidate loop (Section III-I.1): every candidate
/// partitioning is assigned to cores, communication-planned, proven
/// pairable and capacity-deadlock-free, and lowered; state.cost_model
/// scores each built program and the best one wins.  Only the per-candidate
/// mapping state (CoreAssignment) is materialized — the kernel and its
/// index are shared read-only across all candidates.
class SelectPass final : public Pass {
 public:
  const char* name() const override { return "select"; }
  const char* description() const override {
    return "build every candidate (cores -> comm plan -> pairing/capacity "
           "proofs -> lower), pick by dynamic feedback or static objective";
  }
  void Run(CompileState& state) override {
    FGPAR_CHECK_MSG(state.index.has_value() && !state.candidates.empty(),
                    "select stage requires the graph and merge stages");
    FGPAR_CHECK_MSG(state.layout != nullptr,
                    "select stage requires a data layout to lower against");
    const analysis::KernelIndex& index = *state.index;
    const ir::Kernel& kernel = state.kernel();

    // Without a cost model there is one static candidate; first wins.
    const CostModel* model = state.cost_model;
    const std::string model_name =
        model != nullptr ? std::string(model->name()) : "none";

    struct Built {
      isa::Program program;
      ProgramPlan plan;
      CoreAssignment assignment;
      double cost = 0.0;
      std::size_t index = 0;
    };
    std::optional<Built> best;
    state.candidate_reports.clear();
    int built_count = 0;
    for (std::size_t i = 0; i < state.candidates.size(); ++i) {
      CandidateReport report;
      report.index = i;
      report.partitions = state.candidates[i].size();
      report.model = model_name;
      try {
        CoreAssignment assignment = AssignCores(index, state.candidates[i]);
        CommPlan comm = BuildCommPlan(index, assignment);
        ProgramPlan plan = BuildProgramPlan(index, assignment, std::move(comm));
        CheckCommunicationPairing(kernel, plan);
        CheckQueueCapacity(plan, state.options.assumed_queue_capacity);
        Built built{LowerParallel(kernel, *state.layout, plan),
                    std::move(plan), std::move(assignment), 0.0, i};
        if (model != nullptr) {
          ScoredCandidate scored =
              model->Score(state, built.program, built.plan, built.assignment);
          built.cost = scored.cost;
          report.cost = scored.cost;
          report.detail = std::move(scored.detail);
          report.features = std::move(scored.features);
        } else {
          report.detail = "static objective chose this candidate";
        }
        report.built = true;
        ++built_count;
        if (!best.has_value() || built.cost < best->cost) {
          best = std::move(built);
        }
      } catch (const Error& e) {
        // Candidate rejected (pairing/capacity/lowering/scoring); try the
        // next one and keep the reason for the aggregate error.
        report.detail = e.what();
      }
      state.candidate_reports.push_back(std::move(report));
    }
    const std::size_t count = state.candidates.size();
    state.Note("candidates_built", built_count);
    state.Note("candidates_rejected",
               static_cast<std::int64_t>(count) - built_count);
    if (!best.has_value()) {
      std::string message = "no candidate partitioning compiled successfully (" +
                            std::to_string(count) + " candidates)";
      for (const CandidateReport& report : state.candidate_reports) {
        message += "\n  candidate " + std::to_string(report.index + 1) + "/" +
                   std::to_string(count) + " (" +
                   std::to_string(report.partitions) +
                   " partitions): " + report.detail;
      }
      throw Error(message);
    }
    state.candidate_reports[best->index].selected = true;
    state.Note("partitions",
               static_cast<std::int64_t>(best->assignment.partitions.size()));
    state.Note("com_ops", best->plan.comm.com_ops());
    if (model != nullptr) {
      // Models may score in fractional cycles; keep the counter integral
      // (milli-cycles) so --compile-stats stays integer-valued.
      state.Note("best_model_cost_milli",
                 static_cast<std::int64_t>(std::llround(best->cost * 1000.0)));
    }
    static_cast<CoreAssignment&>(state.partition) = std::move(best->assignment);
    state.plan = std::move(best->plan);
    state.program = std::move(best->program);
  }
  void CheckInvariants(const CompileState& state) const override {
    FGPAR_CHECK_MSG(state.plan.has_value() && state.program.has_value(),
                    "select stage left no chosen plan/program");
    // Every loop-body statement must be owned by exactly one core.
    for (const analysis::StmtEntry& entry : state.index->entries()) {
      if (entry.in_epilogue || entry.is_if) {
        continue;
      }
      FGPAR_CHECK_MSG(state.partition.core_of.contains(entry.id),
                      "statement s" + std::to_string(entry.id) +
                          " not assigned to any core");
    }
    // Pairing-after-comm: re-prove that the chosen plan's queue operations
    // pair on every control path (the per-candidate proof ran on the same
    // plan; this guards future stages that might reorder plan items).
    CheckCommunicationPairing(state.kernel(), *state.plan);
  }
};

/// Lowers the scalar kernel for a single core (the paper's sequential
/// baseline).
class LowerSequentialPass final : public Pass {
 public:
  const char* name() const override { return "lower"; }
  const char* description() const override {
    return "lower the scalar kernel to the single-core baseline program";
  }
  void Run(CompileState& state) override {
    FGPAR_CHECK_MSG(state.layout != nullptr,
                    "lower stage requires a data layout");
    state.program = LowerSequential(state.kernel(), *state.layout);
    state.Note("code_words",
               static_cast<std::int64_t>(state.program->size()));
  }
  void CheckInvariants(const CompileState& state) const override {
    FGPAR_CHECK_MSG(state.program.has_value(),
                    "lower stage produced no program");
  }
};

}  // namespace

std::unique_ptr<Pass> MakeGraphPass() { return std::make_unique<GraphPass>(); }
std::unique_ptr<Pass> MakeMergePass() { return std::make_unique<MergePass>(); }
std::unique_ptr<Pass> MakeSelectPass() { return std::make_unique<SelectPass>(); }
std::unique_ptr<Pass> MakeLowerSequentialPass() {
  return std::make_unique<LowerSequentialPass>();
}

}  // namespace fgpar::compiler
