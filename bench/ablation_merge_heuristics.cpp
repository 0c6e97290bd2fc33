// Section III-B ablation: the individual merge heuristics.
//
// "We have experimented with many different heuristics, but the ones that
// worked best are: [dependence edges, smaller compute time, source
// proximity]."  This bench disables each of the three affinity terms in
// turn (and tries multi-pair merging) and reports the average 4-core
// speedup, isolating each heuristic's contribution.  Run with the static
// compiler so the heuristics, not the dynamic tuner, decide.
#include <cstdio>
#include <vector>

#include "kernels/experiments.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace {

double AverageSpeedup(const std::function<void(fgpar::harness::RunConfig&)>& tweak) {
  using namespace fgpar;
  std::vector<double> speedups;
  for (const kernels::SequoiaKernel& spec : kernels::SequoiaKernels()) {
    kernels::ExperimentConfig config;
    config.cores = 4;
    harness::RunConfig run_config = kernels::ToRunConfig(config);
    tweak(run_config);
    const ir::Kernel kernel = kernels::ParseSequoia(spec);
    harness::KernelRunner runner(kernel, kernels::SequoiaInit(spec));
    speedups.push_back(runner.Run(run_config).speedup);
  }
  return Mean(speedups);
}

}  // namespace

int main() {
  using namespace fgpar;

  struct Variant {
    const char* label;
    std::function<void(harness::RunConfig&)> tweak;
  };
  const std::vector<Variant> variants = {
      {"all heuristics (baseline)", [](harness::RunConfig&) {}},
      {"no dependence-edge term",
       [](harness::RunConfig& c) { c.compile.w_deps = 0.0; }},
      {"no compute-time term",
       [](harness::RunConfig& c) { c.compile.w_cost = 0.0; }},
      {"no source-proximity term",
       [](harness::RunConfig& c) { c.compile.w_prox = 0.0; }},
      {"no profile feedback",
       [](harness::RunConfig& c) { c.collect_profile = false; }},
      {"multi-pair merging",
       [](harness::RunConfig& c) { c.compile.multi_pair_merge = true; }},
  };

  TextTable table({"Variant", "avg 4-core speedup"});
  for (const Variant& variant : variants) {
    table.AddRow({variant.label, FormatFixed(AverageSpeedup(variant.tweak), 2)});
  }
  std::printf("%s\n",
              table
                  .Render("Section III-B ablation: contribution of each merge "
                          "heuristic (static compiler, 4 cores)\n(the paper "
                          "reports these three heuristics 'worked best' but "
                          "gives no per-heuristic numbers)")
                  .c_str());
  return 0;
}
