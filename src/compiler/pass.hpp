// The compile pipeline's pass interface.
//
// Every stage of the Section III compilation — the scalar rewrites
// (splitting, folding, speculation, forwarding, dead-temp elimination),
// fiber formation, code-graph construction, candidate merging,
// multi-version selection, and lowering — is a named Pass over one shared
// CompileState.  The PassManager (pipeline.hpp) runs a pipeline of passes,
// re-validates the IR after every IR-mutating pass, checks pass-declared
// invariants, and records per-pass wall time and IR-delta statistics, so
// the whole compile is observable (`fgparc --dump-after=<pass|all>`,
// `--print-pipeline`, `--compile-stats`) and verifiable at every step.
//
// CompileState threads everything a stage may need: the kernel being
// rewritten (inside PartitionResult, with its Table III statistics), the
// data layout, the options, the profile feedback, and the derived
// analyses (KernelIndex, CostModel, CodeGraph), the multi-version
// candidate set, and the chosen plan/program.  Stages fill the state
// monotonically; a pass that needs an analysis a previous stage did not
// produce is a pipeline-construction bug and throws.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/cost.hpp"
#include "analysis/index.hpp"
#include "compiler/graph.hpp"
#include "compiler/merge.hpp"
#include "compiler/options.hpp"
#include "compiler/partition.hpp"
#include "compiler/plan.hpp"
#include "ir/layout.hpp"
#include "isa/program.hpp"
#include "support/telemetry/telemetry.hpp"

namespace fgpar::analysis {
struct ProfileData;
}

namespace fgpar::compiler {

class CostModel;  // cost_model.hpp: the select stage's candidate scorer

/// What the select stage recorded about one candidate partitioning: every
/// candidate — built or rejected — gets a report carrying its cost-model
/// attribution, so `--explain-select` and the autotuner can show *why* the
/// winner won and each loser lost.
struct CandidateReport {
  std::size_t index = 0;      // 0-based enumeration order
  std::size_t partitions = 0;
  bool built = false;         // false: rejected (pairing/capacity/lowering)
  bool selected = false;      // the winning candidate
  double cost = 0.0;          // cost-model score (lower wins); 0 when unscored
  std::string model;          // scoring cost model's name ("none" when unscored)
  std::string detail;         // score explanation, or the rejection reason
  /// Named model features, in the model's deterministic emission order.
  std::vector<std::pair<std::string, double>> features;
};

/// Everything the pipeline threads between passes.
struct CompileState {
  /// `layout` may be null for rewrite-only pipelines (no lowering stage).
  CompileState(ir::Kernel kernel, const ir::DataLayout* layout,
               const CompileOptions& options)
      : layout(layout), options(options), partition(std::move(kernel)) {}
  CompileState(PartitionResult partition, const ir::DataLayout* layout,
               const CompileOptions& options)
      : layout(layout), options(options), partition(std::move(partition)) {}

  // ---- immutable inputs ----
  const ir::DataLayout* layout = nullptr;
  CompileOptions options;
  const analysis::ProfileData* profile = nullptr;   // may be null
  /// The select stage's candidate scorer (paper Section III-I.1's
  /// multi-version compilation).  Null: the static objective picks the one
  /// merged candidate.
  const CostModel* cost_model = nullptr;

  // ---- the kernel being rewritten, plus Table III bookkeeping ----
  PartitionResult partition;

  ir::Kernel& kernel() { return partition.kernel; }
  const ir::Kernel& kernel() const { return partition.kernel; }

  // ---- derived analyses (filled by the graph stage) ----
  std::optional<analysis::KernelIndex> index;
  std::optional<analysis::CostModel> cost;
  std::optional<CodeGraph> graph;

  // ---- multi-version candidates (filled by the merge stage) ----
  std::vector<std::vector<MergedPartition>> candidates;

  // ---- selection outputs (filled by the select / lower stages) ----
  std::optional<ProgramPlan> plan;      // chosen candidate's plan (parallel)
  std::optional<isa::Program> program;  // final machine code
  /// Structured per-candidate records (built and rejected alike), in
  /// enumeration order, each with its cost-model attribution or its
  /// rejection reason.
  std::vector<CandidateReport> candidate_reports;

  /// Per-pass deterministic counters; a pass calls Note() to report what it
  /// did ("split_added", "candidates_rejected", ...).  No-op unless the
  /// manager is collecting statistics for the current pass.
  void Note(const std::string& key, std::int64_t value);

  /// Set by the PassManager around each pass; passes use Note() instead.
  std::map<std::string, std::int64_t>* current_counters = nullptr;
};

/// One pipeline stage.  Implementations live next to the transformation
/// they wrap (split.cpp, optimize.cpp, ...) and are registered into
/// pipelines by pipeline.cpp.
class Pass {
 public:
  virtual ~Pass() = default;

  /// Stable name used by --dump-after, --print-pipeline, and statistics.
  virtual const char* name() const = 0;
  /// One-line description for --print-pipeline and the docs.
  virtual const char* description() const = 0;

  virtual void Run(CompileState& state) = 0;

  /// True when Run may rewrite the kernel IR.  The manager re-validates
  /// the kernel (ir::CheckValid) after every IR-mutating pass.
  virtual bool mutates_ir() const { return false; }

  /// Pass-declared structural invariants, checked by the manager right
  /// after Run (and after the IR validator).  Throw fgpar::Error on
  /// violation; the manager attributes the failure to this pass.
  virtual void CheckInvariants(const CompileState& state) const;
};

/// Reserved counter keys on "pass" telemetry spans: the manager records
/// the IR size before/after each pass under these names, next to the
/// pass's own Note() counters.  Renderers (FormatCompileSpans, the
/// compile-stats artifact) treat them as structure, not pass counters.
inline constexpr const char* kPassSpanReservedKeys[] = {
    "stmts_before", "stmts_after", "temps_before",
    "temps_after",  "exprs_before", "exprs_after",
};

/// Observability hooks for one pipeline run.
struct PipelineInstrumentation {
  /// Dump the kernel IR (ir/printer) after the named pass ("all" dumps
  /// after every pass).  Empty disables dumping.
  std::string dump_after;
  /// Receives (pass name, rendered kernel) for each requested dump.
  std::function<void(const std::string& pass, const std::string& text)>
      dump_sink;
  /// When set, the manager emits one "pass" span per pass (wall time, the
  /// reserved IR-delta counters above, and the pass's Note() counters) and
  /// one enclosing "pipeline" span named after the pipeline.  Wall times
  /// are host measurements and must never enter the deterministic portion
  /// of a bench artifact.
  telemetry::TelemetrySink* telemetry = nullptr;
};

// ---- pass factories (each defined next to the code it wraps) ----
std::unique_ptr<Pass> MakeSplitPass();        // split.cpp
std::unique_ptr<Pass> MakeFoldPass();         // optimize.cpp
std::unique_ptr<Pass> MakeDcePass();          // optimize.cpp
std::unique_ptr<Pass> MakeSpeculatePass();    // speculate.cpp
std::unique_ptr<Pass> MakeForwardPass();      // forward.cpp
std::unique_ptr<Pass> MakeFiberizePass();     // fiber.cpp
std::unique_ptr<Pass> MakeGraphPass();        // pass.cpp (graph + index + cost)
std::unique_ptr<Pass> MakeMergePass();        // pass.cpp (candidate merging)
std::unique_ptr<Pass> MakeSelectPass();       // pass.cpp (multi-version select)
std::unique_ptr<Pass> MakeLowerSequentialPass();  // pass.cpp

}  // namespace fgpar::compiler
