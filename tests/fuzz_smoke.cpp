// fuzz_smoke — property-fuzz sweep for CI, registered as a ctest with the
// "fuzz_smoke" label.
//
// Drives a contiguous GenerateRandomKernel seed range through the full
// verifying pipeline (reference interpreter / compiled sequential /
// compiled parallel must leave bit-identical memory) at 2 and 4 cores.
// Any failure is reported with the seed as a one-line repro command so it
// can be replayed in isolation:
//
//   fuzz_smoke --seed <s>
//
// Usage:
//   fuzz_smoke [--start N] [--count N] [--cores N] [--seed N]
//
// --seed runs exactly one seed (the repro mode); otherwise seeds
// [start, start+count) are swept across host threads.  Exit 0 when every
// seed passes, 1 otherwise.
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "../bench/bench_common.hpp"
#include "harness/random_kernel.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "support/error.hpp"

namespace {

// Triple-checks one generated kernel at one core count; returns the error
// text ("" on success).
std::string CheckSeed(std::uint64_t seed, int cores) {
  using namespace fgpar;
  try {
    const harness::RandomKernelCase generated =
        harness::GenerateRandomKernel(seed);
    harness::KernelRunner runner(generated.kernel, generated.init);
    harness::RunConfig config;
    config.compile.num_cores = cores;
    config.seed = seed;
    // A generator or compiler bug that produces a non-terminating program
    // must surface as a CycleBudgetError, not a hung CI job.
    config.max_cycles = 50'000'000;
    (void)runner.Run(config);
    return "";
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fgpar;

  const long long single = benchutil::FlagInt(argc, argv, "--seed", -1);
  const std::uint64_t start = static_cast<std::uint64_t>(
      benchutil::FlagInt(argc, argv, "--start", 1));
  const std::size_t count =
      single >= 0 ? 1
                  : static_cast<std::size_t>(
                        benchutil::FlagInt(argc, argv, "--count", 40));
  const int cores =
      static_cast<int>(benchutil::FlagInt(argc, argv, "--cores", 0));
  const std::vector<int> core_counts =
      cores > 0 ? std::vector<int>{cores} : std::vector<int>{2, 4};

  std::atomic<int> failures{0};
  harness::RunSweep(count, harness::ResolveSweepThreads(0), [&](std::size_t i) {
    const std::uint64_t seed =
        single >= 0 ? static_cast<std::uint64_t>(single) : start + i;
    for (const int c : core_counts) {
      const std::string error = CheckSeed(seed, c);
      if (!error.empty()) {
        ++failures;
        std::fprintf(stderr,
                     "seed %llu failed at %d cores: %s\n"
                     "repro: fuzz_smoke --seed %llu --cores %d\n",
                     static_cast<unsigned long long>(seed), c, error.c_str(),
                     static_cast<unsigned long long>(seed), c);
      }
    }
    return 0;
  });

  std::printf("fuzz_smoke: %zu seeds x %zu core counts, %d failures\n", count,
              core_counts.size(), failures.load());
  return failures.load() == 0 ? 0 : 1;
}
