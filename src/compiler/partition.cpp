#include "compiler/partition.hpp"

#include <algorithm>
#include <set>

#include "analysis/cost.hpp"
#include "analysis/index.hpp"
#include "compiler/graph.hpp"
#include "compiler/merge.hpp"
#include "compiler/pipeline.hpp"
#include "support/error.hpp"

namespace fgpar::compiler {

void ApplyRewritePasses(PartitionResult& result, const CompileOptions& options) {
  // One canonical definition of the split/fold/(speculate)/forward/dce/
  // fiberize ordering: the same pipeline CompileParallel runs (pipeline.cpp),
  // minus the partitioning stages.  The manager validates the IR after
  // every pass.
  CompileState state(std::move(result), /*layout=*/nullptr, options);
  BuildRewritePipeline(options).Run(state);
  result = std::move(state.partition);
}

CoreAssignment AssignCores(const analysis::KernelIndex& index,
                           std::vector<MergedPartition> merged) {
  FGPAR_CHECK_MSG(!merged.empty(), "kernel produced no partitionable statements");
  CoreAssignment result;

  // The primary core hosts the partition producing the most values the
  // epilogue consumes (minimizing Section III-F live-variable transfers);
  // ties go to the most expensive partition (already sorted by cost).
  std::set<ir::TempId> epilogue_temps;
  for (const analysis::StmtEntry& entry : index.entries()) {
    if (entry.in_epilogue) {
      for (ir::TempId t : entry.temps_read) {
        epilogue_temps.insert(t);
      }
    }
  }
  auto live_out_count = [&](const MergedPartition& partition) {
    int count = 0;
    for (ir::StmtId id : partition.stmts) {
      const analysis::StmtEntry& entry = index.ByStmtId(id);
      if (entry.temp_written >= 0 && epilogue_temps.contains(entry.temp_written)) {
        ++count;
      }
    }
    return count;
  };
  std::stable_sort(merged.begin(), merged.end(),
                   [&](const MergedPartition& a, const MergedPartition& b) {
                     return live_out_count(a) > live_out_count(b);
                   });

  for (std::size_t c = 0; c < merged.size(); ++c) {
    std::vector<ir::StmtId> stmts = merged[c].stmts;
    std::sort(stmts.begin(), stmts.end());  // program order within core
    for (ir::StmtId id : stmts) {
      result.core_of[id] = static_cast<int>(c);
    }
    result.partitions.push_back(std::move(stmts));
    result.compute_ops_per_core.push_back(merged[c].compute_ops);
  }

  int min_ops = result.compute_ops_per_core[0];
  int max_ops = result.compute_ops_per_core[0];
  for (int ops : result.compute_ops_per_core) {
    min_ops = std::min(min_ops, ops);
    max_ops = std::max(max_ops, ops);
  }
  result.load_balance =
      static_cast<double>(max_ops) / static_cast<double>(std::max(1, min_ops));
  return result;
}

void AssignPartitionsToCores(PartitionResult& result,
                             const analysis::KernelIndex& index,
                             std::vector<MergedPartition> merged) {
  static_cast<CoreAssignment&>(result) = AssignCores(index, std::move(merged));
}

PartitionResult PartitionKernel(const ir::Kernel& input,
                                const CompileOptions& options,
                                const analysis::ProfileData* profile) {
  PartitionResult result(input);  // copies; passes rewrite in place
  ApplyRewritePasses(result, options);

  const analysis::KernelIndex index(result.kernel);
  const analysis::CostModel cost(sim::CoreTiming{}, sim::CacheConfig{},
                                 profile);
  const CodeGraph graph = BuildCodeGraph(index, cost);
  result.data_deps = graph.data_dep_count;

  AssignPartitionsToCores(result, index, MergeGraph(graph, options));
  return result;
}

}  // namespace fgpar::compiler
