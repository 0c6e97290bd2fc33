// Extension ablation: multi-version compilation with dynamic feedback.
//
// Section III-I.1 of the paper proposes (but does not evaluate) letting
// the compiler "generate multiple code versions for regions with
// potential, and rely on a runtime system with dynamic feedback to decide
// which code version to execute."  This repo implements that alternative:
// every candidate partitioning (both merge shapes at every partition count
// up to the core budget) is compiled and timed on a training run, and the
// fastest version wins.  This bench compares the paper's static-heuristic
// compiler against the feedback-directed one on all 18 kernels, 4 cores.
#include <cstdio>
#include <vector>

#include "kernels/experiments.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

int main() {
  using namespace fgpar;

  kernels::ExperimentConfig static_config;
  static_config.cores = 4;
  kernels::ExperimentConfig tuned_config = static_config;
  tuned_config.tune_by_simulation = true;

  const auto runs_static = kernels::RunAllKernels(static_config);
  const auto runs_tuned = kernels::RunAllKernels(tuned_config);

  TextTable table({"Kernel", "static heuristics", "dynamic feedback", "delta"});
  std::vector<double> s, t;
  int improved = 0;
  for (std::size_t i = 0; i < runs_static.size(); ++i) {
    const double ss = runs_static[i].speedup;
    const double st = runs_tuned[i].speedup;
    s.push_back(ss);
    t.push_back(st);
    improved += st > ss * 1.01 ? 1 : 0;
    table.AddRow({runs_static[i].kernel_name, FormatFixed(ss, 2),
                  FormatFixed(st, 2), FormatChange(st, ss)});
  }
  table.AddSeparator();
  table.AddRow({"average", FormatFixed(Mean(s), 2), FormatFixed(Mean(t), 2),
                FormatChange(Mean(t), Mean(s))});
  std::printf("%s\n",
              table
                  .Render("Extension: static heuristics vs multi-version "
                          "compilation with dynamic feedback\n(the Section "
                          "III-I.1 alternative the paper proposes), 4 cores")
                  .c_str());
  std::printf("Kernels improved by dynamic feedback: %d\n", improved);
  return 0;
}
