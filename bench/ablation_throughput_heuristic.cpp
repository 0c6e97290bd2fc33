// Section III-B ablation: the throughput heuristic.
//
// "This heuristic constrains partitioning to allow only unidirectional
// dependences between any two nodes in the final graph. ... In our
// experiments, the impact of this heuristic on performance was mixed, with
// 3 of 18 kernels showing performance improvement, and 6 of 18 kernels
// showing performance degradation, and an overall slowdown of 11% on
// average."
#include <cstdio>
#include <vector>

#include "kernels/experiments.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

int main() {
  using namespace fgpar;

  kernels::ExperimentConfig base;
  base.cores = 4;
  kernels::ExperimentConfig throughput = base;
  throughput.throughput_heuristic = true;

  const auto runs_base = kernels::RunAllKernels(base);
  const auto runs_tp = kernels::RunAllKernels(throughput);

  TextTable table({"Kernel", "base", "throughput", "delta"});
  std::vector<double> b, t;
  int better = 0;
  int worse = 0;
  for (std::size_t i = 0; i < runs_base.size(); ++i) {
    const double sb = runs_base[i].speedup;
    const double st = runs_tp[i].speedup;
    b.push_back(sb);
    t.push_back(st);
    better += st > sb * 1.02 ? 1 : 0;
    worse += st < sb * 0.98 ? 1 : 0;
    table.AddRow({runs_base[i].kernel_name, FormatFixed(sb, 2), FormatFixed(st, 2),
                  FormatChange(st, sb)});
  }
  table.AddSeparator();
  table.AddRow({"average", FormatFixed(Mean(b), 2), FormatFixed(Mean(t), 2),
                FormatChange(Mean(t), Mean(b))});

  std::printf("%s\n",
              table
                  .Render("Section III-B ablation: acyclic 'throughput' "
                          "heuristic, 4 cores\n(paper: 3 kernels better, 6 "
                          "worse, 11% average slowdown)")
                  .c_str());
  std::printf("better: %d, worse: %d\n", better, worse);
  return 0;
}
