// Compile-time microbenchmarks (google-benchmark).
//
// Section III-B: the multi-pair merge variant "allows faster compilation,
// and becomes useful when there are a large number of fibers to process."
// These benchmarks time the partitioning pipeline on synthetically widened
// kernels and compare single-pair vs multi-pair merging, plus the cost of
// the full compile path.  Every partition benchmark reports its code-graph
// size as the `nodes` counter.
//
// Two kernel families:
//  * WideKernel(w): w independent output statements, 4w code-graph nodes
//    (w = 8 / 24 / 48 -> 32 / 96 / 192 nodes);
//  * harness::GenerateWideKernel(seed 7, s): dependent statements (each
//    reads an earlier temp with p = 0.4), sized to 92 / 189 / 387 nodes --
//    Table III's 60-390 fiber range.
#include <benchmark/benchmark.h>

#include <sstream>

#include "analysis/cost.hpp"
#include "analysis/index.hpp"
#include "compiler/compile.hpp"
#include "compiler/graph.hpp"
#include "compiler/partition.hpp"
#include "frontend/parser.hpp"
#include "harness/random_kernel.hpp"

namespace {

using namespace fgpar;

/// A kernel with `width` independent output statements (4 nodes each).
ir::Kernel WideKernel(int width) {
  std::ostringstream os;
  os << "kernel wide {\n  param i64 n;\n  array f64 a[1024];\n";
  for (int w = 0; w < width; ++w) {
    os << "  array f64 o" << w << "[1024];\n";
  }
  os << "  loop i = 2 .. n {\n";
  for (int w = 0; w < width; ++w) {
    os << "    o" << w << "[i] = a[i] * " << (w + 2) << ".0 + a[i-1] * a[i+"
       << (w % 3) << "] - " << w << ".5;\n";
  }
  os << "  }\n}\n";
  return frontend::ParseKernel(os.str());
}

constexpr std::uint64_t kSeededKernelSeed = 7;

/// Code-graph nodes PartitionKernel merges for `kernel` under `options`.
int GraphNodes(const ir::Kernel& kernel, const compiler::CompileOptions& options) {
  compiler::PartitionResult result(kernel);
  compiler::ApplyRewritePasses(result, options);
  const analysis::KernelIndex index(result.kernel);
  const analysis::CostModel cost(sim::CoreTiming{}, sim::CacheConfig{}, nullptr);
  return static_cast<int>(compiler::BuildCodeGraph(index, cost).nodes.size());
}

void RunPartition(benchmark::State& state, const ir::Kernel& kernel,
                  bool multi_pair) {
  compiler::CompileOptions options;
  options.num_cores = 4;
  options.multi_pair_merge = multi_pair;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler::PartitionKernel(kernel, options, nullptr));
  }
  state.counters["nodes"] = GraphNodes(kernel, options);
}

void BM_PartitionSinglePair(benchmark::State& state) {
  RunPartition(state, WideKernel(static_cast<int>(state.range(0))), false);
}
BENCHMARK(BM_PartitionSinglePair)->Arg(8)->Arg(24)->Arg(48);

void BM_PartitionMultiPair(benchmark::State& state) {
  RunPartition(state, WideKernel(static_cast<int>(state.range(0))), true);
}
BENCHMARK(BM_PartitionMultiPair)->Arg(8)->Arg(24)->Arg(48);

// Arguments are statement counts: 29 / 58 / 116 statements give 92 / 189 /
// 387 nodes.
void BM_PartitionSinglePairSeeded(benchmark::State& state) {
  RunPartition(state,
               harness::GenerateWideKernel(kSeededKernelSeed,
                                           static_cast<int>(state.range(0))),
               false);
}
BENCHMARK(BM_PartitionSinglePairSeeded)
    ->Arg(29)->Arg(58)->Arg(116)->Unit(benchmark::kMillisecond);

void BM_PartitionMultiPairSeeded(benchmark::State& state) {
  RunPartition(state,
               harness::GenerateWideKernel(kSeededKernelSeed,
                                           static_cast<int>(state.range(0))),
               true);
}
BENCHMARK(BM_PartitionMultiPairSeeded)
    ->Arg(29)->Arg(58)->Arg(116)->Unit(benchmark::kMillisecond);

void BM_FullParallelCompile(benchmark::State& state) {
  const ir::Kernel kernel = WideKernel(static_cast<int>(state.range(0)));
  const ir::DataLayout layout(kernel);
  compiler::CompileOptions options;
  options.num_cores = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler::CompileParallel(kernel, layout, options));
  }
}
BENCHMARK(BM_FullParallelCompile)->Arg(8)->Arg(24);

void BM_SequentialCompile(benchmark::State& state) {
  const ir::Kernel kernel = WideKernel(static_cast<int>(state.range(0)));
  const ir::DataLayout layout(kernel);
  compiler::CompileOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler::CompileSequential(kernel, layout, options));
  }
}
BENCHMARK(BM_SequentialCompile)->Arg(8)->Arg(24);

}  // namespace

BENCHMARK_MAIN();
