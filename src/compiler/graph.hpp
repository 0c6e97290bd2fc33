// The code graph (paper Section III-B).
//
// "Once fibers have been identified, a graph (called the code graph) is
// built.  Each node in this code graph represents a fiber.  Edges between
// nodes represent data and control dependences between code sections."
//
// Nodes are groups of fiberized loop-body statements.  Before any affinity
// merging, statements that must share a core are pre-fused:
//
//  * all defs and uses of a loop-carried temporary (a cross-core carried
//    value would serialize every iteration on the transfer latency, and
//    the paper keeps reductions sequential);
//  * statements with unresolvable memory conflicts: for every symbol, any
//    two accesses at least one of which is a write are fused unless the
//    affine subscript analysis proves them disjoint at every iteration
//    distance, or they conflict only in the same iteration from mutually
//    exclusive branches.  This is what keeps the pipelined cross-core
//    execution (cores may be several iterations apart, bounded by queue
//    capacity) sound without speculation hardware.
#pragma once

#include <vector>

#include "analysis/cost.hpp"
#include "analysis/index.hpp"
#include "ir/kernel.hpp"

namespace fgpar::compiler {

struct GraphNode {
  std::vector<ir::StmtId> stmts;  // loop-body non-if statements
  double cost = 0.0;              // estimated cycles (Section III-B heuristic 2)
  int min_line = 0;               // source proximity (heuristic 3)
  int compute_ops = 0;            // for Table III load balance
};

struct DepEdge {
  ir::StmtId producer;
  ir::StmtId consumer;
  bool is_control = false;  // condition-value dependence (Section III-E)
};

struct CodeGraph {
  std::vector<GraphNode> nodes;
  std::vector<DepEdge> edges;  // statement-level, producer -> consumer
  /// "Data Deps" of Table III: data dependences between initial fibers.
  int data_dep_count = 0;

  /// Node index containing a statement (O(1)); throws for a statement
  /// not in the graph.
  int NodeOf(ir::StmtId stmt) const;

 private:
  friend CodeGraph BuildCodeGraph(const analysis::KernelIndex& index,
                                  const analysis::CostModel& cost);
  std::vector<int> node_of_;  // by statement id; -1 for none
};

/// Builds the fused code graph for a fiberized kernel.
CodeGraph BuildCodeGraph(const analysis::KernelIndex& index,
                         const analysis::CostModel& cost);

/// Compute-op count of one statement (internal expression nodes, including
/// the store subscript).
int StmtComputeOps(const ir::Kernel& kernel, const ir::Stmt& stmt);

}  // namespace fgpar::compiler
