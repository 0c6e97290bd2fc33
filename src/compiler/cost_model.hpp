// The select stage's candidate scorer (paper Section III-I.1's
// multi-version compilation).
//
// CostModel is the one way to score a fully built candidate partitioning;
// CompileParallel takes one, and without one the static makespan
// objective picks the single merged candidate.  Two models exist:
//
//   * harness::KernelRunner's training simulations ("simulate"): each
//     candidate runs on the training workload, and its score is the exact
//     measured cycle count (integers below 2^53 are exact in a double).
//   * model::AnalyticModel scores candidates from static features alone —
//     no simulation — which is what makes autotuning over large config
//     spaces feasible (predict everything, simulate only the frontier).
//
// The select loop keeps the lowest score, the first on ties.  A model
// returns a ScoredCandidate: the comparable cost plus the explanation
// record (`fgparc --explain-select`) — one human-readable line and the
// named feature values the score was computed from.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "compiler/pass.hpp"
#include "compiler/plan.hpp"

namespace fgpar::compiler {

/// One scored candidate: the comparable cost and its explanation.
struct ScoredCandidate {
  double cost = 0.0;   // lower wins; ties resolve first-wins
  std::string detail;  // one-line attribution for --explain-select
  /// Named features in the model's deterministic emission order.
  std::vector<std::pair<std::string, double>> features;
};

/// Scores fully built candidates for the select stage.  Implementations
/// must be deterministic: same state + candidate, same score and record.
class CostModel {
 public:
  virtual ~CostModel() = default;

  /// Stable name recorded in CandidateReport::model.
  virtual std::string_view name() const = 0;

  /// Scores one candidate that survived building (cores assigned, comm
  /// planned, pairing/capacity proven, lowered).  `state` carries the
  /// shared analyses (graph, index, cost, options); the remaining
  /// arguments are the candidate's own artifacts.
  virtual ScoredCandidate Score(const CompileState& state,
                                const isa::Program& program,
                                const ProgramPlan& plan,
                                const CoreAssignment& assignment) const = 0;
};

}  // namespace fgpar::compiler
