// Unit tests for the merge stage: affinity heuristics, the balance cap,
// candidate enumeration, the topological pipeline cut, refinement, and the
// queue-budget constraint.
//
// MergeGolden locks the merge stage's exact output: every EnumerateCandidates
// candidate and MergeGraph's pick, over the Table-I kernels, generated
// random kernels and seeded wide kernels, under the three merge shapes and
// the affinity ablations, hashed per case and compared with
// tests/golden/merge_candidates.txt.  To re-record after an *intentional*
// change, run with FGPAR_GOLDEN_PRINT=1 and replace the file with the
// printed lines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "analysis/cost.hpp"
#include "analysis/index.hpp"
#include "analysis/profile.hpp"
#include "compiler/fiber.hpp"
#include "compiler/forward.hpp"
#include "compiler/graph.hpp"
#include "compiler/merge.hpp"
#include "compiler/partition.hpp"
#include "compiler/split.hpp"
#include "frontend/parser.hpp"
#include "harness/random_kernel.hpp"
#include "harness/runner.hpp"
#include "kernels/sequoia.hpp"
#include "support/error.hpp"
#include "support/serial.hpp"

namespace fgpar::compiler {
namespace {

struct GraphFixture {
  ir::Kernel kernel;
  std::unique_ptr<analysis::KernelIndex> index;
  analysis::CostModel cost{sim::CoreTiming{}, sim::CacheConfig{}, nullptr};
  CodeGraph graph;

  explicit GraphFixture(const char* source)
      : kernel(frontend::ParseKernel(source)) {
    SplitExpressions(kernel, 4);
    ForwardStores(kernel);
    Fiberize(kernel);
    index = std::make_unique<analysis::KernelIndex>(kernel);
    graph = BuildCodeGraph(*index, cost);
  }
};

constexpr const char* kWide = R"(
kernel wide {
  param i64 n;
  array f64 a[64];
  array f64 o1[64];
  array f64 o2[64];
  array f64 o3[64];
  array f64 o4[64];
  loop i = 2 .. n {
    o1[i] = a[i] * 2.0 + a[i-1];
    o2[i] = a[i] * 3.0 - a[i+1];
    o3[i] = a[i] / (a[i] + 1.0) + a[i-2];
    o4[i] = sqrt(abs(a[i])) * a[i+2];
  }
}
)";

std::size_t TotalStmts(const std::vector<MergedPartition>& parts) {
  std::size_t total = 0;
  for (const MergedPartition& p : parts) {
    total += p.stmts.size();
  }
  return total;
}

std::size_t GraphStmts(const CodeGraph& graph) {
  std::size_t total = 0;
  for (const GraphNode& node : graph.nodes) {
    total += node.stmts.size();
  }
  return total;
}

TEST(Merge, PartitionsPartitionTheStatements) {
  GraphFixture f(kWide);
  for (int cores : {1, 2, 3, 4, 8}) {
    CompileOptions options;
    options.num_cores = cores;
    const auto parts = MergeGraph(f.graph, options);
    EXPECT_LE(static_cast<int>(parts.size()), std::max(2, cores));
    EXPECT_EQ(TotalStmts(parts), GraphStmts(f.graph));
    // No statement appears twice.
    std::set<ir::StmtId> seen;
    for (const MergedPartition& p : parts) {
      for (ir::StmtId s : p.stmts) {
        EXPECT_TRUE(seen.insert(s).second);
      }
    }
  }
}

TEST(Merge, BalanceCapPreventsSnowballing) {
  GraphFixture f(kWide);
  CompileOptions options;
  options.num_cores = 4;
  const auto parts = MergeGraph(f.graph, options);
  ASSERT_GE(parts.size(), 2u);
  double total = 0.0;
  double max_cost = 0.0;
  for (const MergedPartition& p : parts) {
    total += p.cost;
    max_cost = std::max(max_cost, p.cost);
  }
  // The biggest partition stays within (roughly) the configured factor of
  // its fair share.  Allow slack for indivisible nodes.
  EXPECT_LT(max_cost, options.balance_cap * total / parts.size() * 2.0);
}

TEST(Merge, EnumerationIsDeduplicatedAndComplete) {
  GraphFixture f(kWide);
  CompileOptions options;
  options.num_cores = 4;
  const auto candidates = EnumerateCandidates(f.graph, options);
  EXPECT_GE(candidates.size(), 2u);  // at least one per shape
  std::set<std::vector<std::vector<ir::StmtId>>> keys;
  for (const auto& candidate : candidates) {
    EXPECT_EQ(TotalStmts(candidate), GraphStmts(f.graph));
    std::vector<std::vector<ir::StmtId>> key;
    for (auto parts = candidate; auto& p : parts) {
      std::sort(p.stmts.begin(), p.stmts.end());
      key.push_back(p.stmts);
    }
    std::sort(key.begin(), key.end());
    EXPECT_TRUE(keys.insert(key).second) << "duplicate candidate";
  }
}

TEST(Merge, ThroughputHeuristicProducesOneCandidate) {
  GraphFixture f(kWide);
  CompileOptions options;
  options.num_cores = 4;
  options.throughput_heuristic = true;
  const auto candidates = EnumerateCandidates(f.graph, options);
  EXPECT_EQ(candidates.size(), 1u);
}

TEST(Merge, ObjectivePrefersAcyclicOverRoundTrips) {
  // Two partitions with a mutual dependence must score worse than the same
  // cost split one-way.
  GraphFixture f(R"(
kernel chainy {
  param i64 n;
  array f64 a[64];
  array f64 o[64];
  loop i = 0 .. n {
    f64 t1 = a[i] * 2.0;
    f64 t2 = t1 + 1.0;
    f64 t3 = t2 * t1;
    o[i] = t3 - t2;
  }
}
)");
  CompileOptions options;
  options.num_cores = 2;
  // Hand-build the two shapes from graph nodes.
  auto part_of_nodes = [&](const std::set<int>& first) {
    std::vector<MergedPartition> parts(2);
    for (int node = 0; node < static_cast<int>(f.graph.nodes.size()); ++node) {
      const GraphNode& gn = f.graph.nodes[static_cast<std::size_t>(node)];
      MergedPartition& p = parts[first.contains(node) ? 0 : 1];
      p.stmts.insert(p.stmts.end(), gn.stmts.begin(), gn.stmts.end());
      p.cost += gn.cost;
    }
    return parts;
  };
  const int n = static_cast<int>(f.graph.nodes.size());
  ASSERT_GE(n, 3);
  // One-way: the first half of the chain vs the rest.
  std::set<int> prefix;
  for (int i = 0; i < n / 2; ++i) {
    prefix.insert(i);
  }
  // Sandwich: first and last node together (forces values out and back).
  std::set<int> sandwich = {0, n - 1};
  const auto one_way = PartitionObjective(f.graph, part_of_nodes(prefix), options);
  const auto round_trip =
      PartitionObjective(f.graph, part_of_nodes(sandwich), options);
  EXPECT_LT(std::get<0>(one_way), std::get<0>(round_trip));
}

TEST(Merge, QueueBudgetRespected) {
  GraphFixture f(kWide);
  for (int budget : {12, 6, 4, 2}) {
    CompileOptions options;
    options.num_cores = 4;
    options.max_channels = budget;
    const auto candidates = EnumerateCandidates(f.graph, options);
    for (const auto& candidate : candidates) {
      // Star channels alone need 2*(P-1) <= budget.
      EXPECT_LE(2 * (static_cast<int>(candidate.size()) - 1), budget)
          << "candidate with " << candidate.size()
          << " partitions under budget " << budget;
    }
  }
}

TEST(Merge, ImpossibleBudgetFallsBackToSinglePartition) {
  GraphFixture f(kWide);
  CompileOptions options;
  options.num_cores = 4;
  options.max_channels = 1;  // can't even dispatch one secondary
  const auto candidates = EnumerateCandidates(f.graph, options);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].size(), 1u);
  EXPECT_EQ(TotalStmts(candidates[0]), GraphStmts(f.graph));
}

TEST(Refine, NeverLosesStatements) {
  GraphFixture f(kWide);
  CompileOptions options;
  options.num_cores = 3;
  auto parts = MergeGraph(f.graph, options);
  const std::size_t before = TotalStmts(parts);
  parts = RefinePartitions(f.graph, std::move(parts), options);
  EXPECT_EQ(TotalStmts(parts), before);
}

// ---- merge golden ----------------------------------------------------------

/// The code graph PartitionKernel merges: the rewrite pipeline under
/// `options`, then the graph with profile-fed (or static) costs.
CodeGraph RewrittenGraph(const ir::Kernel& kernel, const CompileOptions& options,
                         const analysis::ProfileData* profile) {
  PartitionResult result(kernel);
  ApplyRewritePasses(result, options);
  const analysis::KernelIndex index(result.kernel);
  const analysis::CostModel cost(sim::CoreTiming{}, sim::CacheConfig{}, profile);
  return BuildCodeGraph(index, cost);
}

/// The profile KernelRunner::Run feeds the compiler for a Table-I kernel on
/// its default-seed workload.
analysis::ProfileData SequoiaProfile(const kernels::SequoiaKernel& spec,
                                     const ir::Kernel& kernel) {
  const harness::RunConfig config;
  const ir::DataLayout layout(kernel, /*base=*/64);
  const harness::PreparedWorkload workload(kernel, layout,
                                           kernels::SequoiaInit(spec), config.seed);
  return analysis::ProfileData::Collect(kernel, layout, workload.params,
                                        workload.image, config.cache);
}

std::string RenderPartitions(const std::vector<MergedPartition>& parts) {
  std::ostringstream os;
  for (const MergedPartition& part : parts) {
    std::vector<ir::StmtId> stmts = part.stmts;
    std::sort(stmts.begin(), stmts.end());
    char cost[32];
    std::snprintf(cost, sizeof cost, "%.17g", part.cost);
    os << "  cost=" << cost << " ops=" << part.compute_ops << " stmts=";
    for (ir::StmtId stmt : stmts) {
      os << ' ' << stmt;
    }
    os << '\n';
  }
  return os.str();
}

/// Every candidate, then MergeGraph's pick with its objective tuple.
std::string RenderMerge(const CodeGraph& graph, const CompileOptions& options) {
  std::ostringstream os;
  const auto candidates = EnumerateCandidates(graph, options);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    os << "candidate " << i << '\n' << RenderPartitions(candidates[i]);
  }
  const std::vector<MergedPartition> pick = MergeGraph(graph, options);
  const auto [makespan, transfers, max_cost] =
      PartitionObjective(graph, pick, options);
  char objective[96];
  std::snprintf(objective, sizeof objective, "%.17g %d %.17g", makespan,
                transfers, max_cost);
  os << "pick " << objective << '\n' << RenderPartitions(pick);
  return os.str();
}

struct MergeShape {
  const char* name;
  bool multi_pair;
  bool throughput;
};
constexpr MergeShape kShapes[] = {
    {"affinity", false, false},
    {"multi_pair", true, false},
    {"throughput", false, true},
};

CompileOptions ShapeOptions(const MergeShape& shape, int cores) {
  CompileOptions options;
  options.num_cores = cores;
  options.multi_pair_merge = shape.multi_pair;
  options.throughput_heuristic = shape.throughput;
  return options;
}

/// The affinity ablations of bench/ablation_merge_heuristics, plus
/// dependences alone: with terms switched off many pairs tie, so the tie
/// order and the surviving node decide the merge.
struct Ablation {
  const char* name;
  bool deps, cost, prox;
};
constexpr Ablation kAblations[] = {
    {"no_deps", false, true, true},
    {"no_cost", true, false, true},
    {"no_prox", true, true, false},
    {"deps_only", true, false, false},
};

CompileOptions AblationOptions(const Ablation& ablation) {
  CompileOptions options;
  options.w_deps = ablation.deps ? options.w_deps : 0.0;
  options.w_cost = ablation.cost ? options.w_cost : 0.0;
  options.w_prox = ablation.prox ? options.w_prox : 0.0;
  return options;
}

TEST(MergeGolden, CandidatesByteIdentical) {
  std::map<std::string, std::string> golden;
  {
    std::ifstream in(std::string(FGPAR_GOLDEN_DIR) + "/merge_candidates.txt");
    std::string label;
    std::string hash;
    while (in >> label >> hash) {
      golden[label] = hash;
    }
  }
  const bool print = std::getenv("FGPAR_GOLDEN_PRINT") != nullptr;
  std::set<std::string> checked;
  auto check = [&](const std::string& label, const CodeGraph& graph,
                   const CompileOptions& options) {
    const std::string rendering = RenderMerge(graph, options);
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(Fnv1a64(rendering)));
    checked.insert(label);
    if (print) {
      std::printf("%s %s\n", label.c_str(), hash);
      return;
    }
    const auto it = golden.find(label);
    if (it == golden.end() || it->second != hash) {
      ADD_FAILURE() << label << ": merge output drifted (golden "
                    << (it == golden.end() ? "missing" : it->second) << ", got "
                    << hash << ")\n" << rendering;
    }
  };

  // The Table-I kernels, costed with their workload profile.
  for (const kernels::SequoiaKernel& spec : kernels::SequoiaKernels()) {
    const ir::Kernel kernel = kernels::ParseSequoia(spec);
    const analysis::ProfileData profile = SequoiaProfile(spec, kernel);
    for (const bool speculation : {false, true}) {
      CompileOptions rewrite;
      rewrite.speculation = speculation;
      const CodeGraph graph = RewrittenGraph(kernel, rewrite, &profile);
      for (const int cores : {2, 3, 4}) {
        for (const MergeShape& shape : kShapes) {
          CompileOptions options = ShapeOptions(shape, cores);
          options.speculation = speculation;
          check(spec.id + (speculation ? "/spec" : "/nospec") + "/c" +
                    std::to_string(cores) + "/" + shape.name,
                graph, options);
        }
      }
      if (!speculation) {
        CompileOptions budget;
        budget.max_channels = 6;
        check(spec.id + "/c4/channels6", graph, budget);
        for (const Ablation& ablation : kAblations) {
          check(spec.id + "/c4/" + ablation.name, graph, AblationOptions(ablation));
        }
      }
    }
  }
  // Generated kernels and the seeded wide kernels, with static costs.
  std::vector<std::pair<std::string, ir::Kernel>> generated;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    generated.emplace_back("random" + std::to_string(seed),
                           harness::GenerateRandomKernel(seed).kernel);
  }
  for (const int stmts : {29, 58}) {  // 92 and 189 nodes
    generated.emplace_back("wide" + std::to_string(stmts),
                           harness::GenerateWideKernel(7, stmts));
  }
  for (const auto& [name, kernel] : generated) {
    const CodeGraph graph = RewrittenGraph(kernel, CompileOptions{}, nullptr);
    for (const Ablation& ablation : kAblations) {
      check(name + "/c4/" + ablation.name, graph, AblationOptions(ablation));
    }
    for (const int cores : {2, 4}) {
      for (const MergeShape& shape : kShapes) {
        check(name + "/c" + std::to_string(cores) + "/" + shape.name, graph,
              ShapeOptions(shape, cores));
      }
    }
  }
  if (!print) {
    for (const auto& [label, hash] : golden) {
      EXPECT_TRUE(checked.contains(label)) << label << ": golden case not run";
    }
  }
}

}  // namespace
}  // namespace fgpar::compiler
