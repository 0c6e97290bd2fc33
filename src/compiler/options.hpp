// Compiler configuration knobs, mirroring the choices the paper explores.
#pragma once

namespace fgpar::compiler {

struct CompileOptions {
  /// Number of hardware cores to partition for (paper: 2 and 4).
  int num_cores = 4;

  /// Expression-splitting depth bound (Section III-A preprocessing:
  /// "expression trees are pre-processed to reduce the depth of the tree").
  /// Trees deeper than this are split into separate statements.
  int max_expr_depth = 4;

  /// Apply the Section III-H control-flow speculation transformation to
  /// if statements carrying the @speculate directive.
  bool speculation = false;

  /// Merge-heuristic weights (Section III-B).  Affinity of a node pair is
  ///   w_deps * (#dependence edges between them)
  /// + w_cost * cost_scale / (cost_scale + combined cost)
  /// + w_prox * line_scale / (line_scale + source-line distance).
  double w_deps = 4.0;
  double w_cost = 1.0;
  double w_prox = 0.5;
  double cost_scale = 40.0;   // cycles
  double line_scale = 4.0;    // source lines

  /// Hardware queue capacity (slots) assumed by the static capacity-
  /// deadlock checker (check.cpp): plans whose per-iteration queue traffic
  /// can reach a cyclic wait across full queues at this capacity are
  /// rejected at compile time instead of wedging the machine.
  /// KernelRunner::Compile sets it to the QueueConfig::capacity the code
  /// runs on.  <= 0 disables the check (unlimited capacity).
  int assumed_queue_capacity = 20;

  /// Transfer latency (cycles) the partitioner *assumes* when weighing
  /// cyclic dependences between partitions.  This mirrors the paper's
  /// methodology: the compiler's heuristics are tuned for the default
  /// 5-cycle hardware, and the Figure 13 sweep changes the hardware out
  /// from under the compiled code.
  int assumed_transfer_latency = 5;

  /// Balance cap: refuse to merge a pair whose combined cost would exceed
  /// this multiple of (total cost / num_cores) while other candidates
  /// remain.  Keeps the greedy merge from snowballing one giant partition,
  /// serving the paper's "maximize the number of operations concurrently
  /// performed in different cores" objective.
  double balance_cap = 1.20;

  /// Merge several disjoint best pairs per step instead of one ("This
  /// version allows faster compilation", Section III-B).
  bool multi_pair_merge = false;

  /// The throughput heuristic: collapse dependence cycles at every merge
  /// step so the final partitions have only unidirectional dependences
  /// (Section III-B; the paper measured an 11% average slowdown).
  bool throughput_heuristic = false;

  /// Hardware queue budget (Section II: "When the number of available
  /// queues is limited, we can constrain the partitioning such that the
  /// generated code uses at most a specific number of queues").  Counted as
  /// directed sender->receiver channels; 0 means unlimited (the all-to-all
  /// configuration of the evaluation).
  int max_channels = 0;
};

}  // namespace fgpar::compiler
