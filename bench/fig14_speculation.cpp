// Figure 14: effect of the Section III-H control-flow speculation
// transformation on the 4-core speedups.
//
// Paper: "This optimization improves the performance of eight kernels,
// resulting in an overall increase in performance of about 28%, with the
// average speedup improving from 2.05 to 2.33."
//
// Both configurations of every kernel run through one host-parallel sweep;
// BENCH_fig14.json records the full grid.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "kernels/experiments.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

int main() {
  using namespace fgpar;

  const auto start = std::chrono::steady_clock::now();
  const std::vector<kernels::SequoiaKernel>& all = kernels::SequoiaKernels();
  const std::size_t kernel_count = all.size();
  const int threads = harness::ResolveSweepThreads(0);

  const std::size_t grid = 2 * kernel_count;
  const auto timed = harness::RunSweep(grid, threads, [&](std::size_t i) {
    kernels::ExperimentConfig config;
    config.cores = 4;
    config.speculation = i >= kernel_count;
    return benchutil::TimedKernelRun(all[i % kernel_count], config);
  });
  const benchutil::TimedRun* runs_off = &timed[0];
  const benchutil::TimedRun* runs_on = &timed[kernel_count];

  TextTable table({"Kernel", "base", "speculation", "delta"});
  std::vector<double> base, spec;
  int improved = 0;
  for (std::size_t i = 0; i < kernel_count; ++i) {
    const double b = runs_off[i].run.speedup;
    const double s = runs_on[i].run.speedup;
    base.push_back(b);
    spec.push_back(s);
    improved += s > b * 1.01 ? 1 : 0;
    table.AddRow({runs_off[i].run.kernel_name, FormatFixed(b, 2),
                  FormatFixed(s, 2), FormatChange(s, b)});
  }
  table.AddSeparator();
  table.AddRow({"average", FormatFixed(Mean(base), 2), FormatFixed(Mean(spec), 2),
                FormatChange(Mean(spec), Mean(base))});

  std::printf("%s\n",
              table
                  .Render("Figure 14: effect of control-flow speculation, 4 "
                          "cores\n(paper: 8 kernels improve, average 2.05 -> "
                          "2.33)")
                  .c_str());
  std::printf("Kernels improved by speculation: %d\n", improved);

  harness::BenchArtifact artifact;
  artifact.name = "fig14";
  for (std::size_t i = 0; i < grid; ++i) {
    artifact.points.push_back(benchutil::MakePoint(
        timed[i], {{"cores", "4"},
                   {"speculation", i >= kernel_count ? "on" : "off"}}));
  }
  artifact.host["sweep_threads"] = threads;
  artifact.host["wall_seconds"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  benchutil::EmitArtifact(artifact);
  return 0;
}
