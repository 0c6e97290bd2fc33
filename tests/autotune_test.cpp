// Tests for the deterministic per-kernel autotuner (harness/autotune.*):
// space enumeration, knob application, the predict-rank-simulate-choose
// loop's frontier discipline and never-worse guarantee, agreement with an
// exhaustive simulation on a golden space, and the fgpar-tune-v1 codec.
//
// AutotuneGolden locks the tuner's exact output: the fgpar-tune-v1 artifact
// of every Table-I kernel under the default TuneSpace and seed, which
// carries every candidate's predicted and simulated speedup, hashed per
// kernel and compared with tests/golden/autotune_artifacts.txt.  To
// re-record after an *intentional* change, run with FGPAR_GOLDEN_PRINT=1
// and replace the file with the printed lines.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/autotune.hpp"
#include "kernels/sequoia.hpp"
#include "support/error.hpp"
#include "support/serial.hpp"

namespace {

using namespace fgpar;

const kernels::SequoiaKernel& KernelById(const std::string& id) {
  for (const kernels::SequoiaKernel& spec : kernels::SequoiaKernels()) {
    if (spec.id == id) {
      return spec;
    }
  }
  throw Error("no such sequoia kernel: " + id);
}

TEST(TuneSpace, EnumerateIsFixedOrderCompleteAndDuplicateFree) {
  const harness::TuneSpace space;
  const std::vector<harness::TunePoint> points = space.Enumerate();
  // 3 core counts x 3 capacities x 3 merges x 2 speculation = 54.
  ASSERT_EQ(points.size(), 54u);
  // Nested order: cores, then capacities, then merges, then speculation.
  EXPECT_EQ(points.front(), (harness::TunePoint{2, 4, false, 0}));
  EXPECT_EQ(points[1], (harness::TunePoint{2, 4, true, 0}));
  EXPECT_EQ(points[2], (harness::TunePoint{2, 4, false, 1}));
  EXPECT_EQ(points.back(), (harness::TunePoint{4, 20, true, 2}));
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      EXPECT_FALSE(points[i] == points[j]) << i << " duplicates " << j;
    }
  }
}

TEST(TuneSpace, MergeShapeNamesRoundTripAndRejectUnknown) {
  EXPECT_EQ(harness::MergeShapeName(0), "affinity");
  EXPECT_EQ(harness::MergeShapeName(1), "multi_pair");
  EXPECT_EQ(harness::MergeShapeName(2), "throughput");
  for (int merge = 0; merge < 3; ++merge) {
    EXPECT_EQ(harness::MergeShapeFromName(harness::MergeShapeName(merge)),
              merge);
  }
  EXPECT_THROW(harness::MergeShapeName(3), Error);
  EXPECT_THROW(harness::MergeShapeFromName("fastest"), Error);
  harness::TunePoint point;
  point.cores = 4;
  point.queue_capacity = 20;
  point.speculation = true;
  point.merge = 2;
  EXPECT_EQ(harness::TunePointLabel(point), "c4 q20 spec=1 merge=throughput");
}

TEST(TuneSpace, ApplyTunePointMapsEveryKnob) {
  harness::TunePoint point;
  point.cores = 3;
  point.queue_capacity = 8;
  point.speculation = true;
  point.merge = 2;
  const harness::RunConfig config =
      harness::ApplyTunePoint(harness::RunConfig{}, point);
  EXPECT_EQ(config.compile.num_cores, 3);
  EXPECT_TRUE(config.compile.speculation);
  EXPECT_FALSE(config.compile.multi_pair_merge);
  EXPECT_TRUE(config.compile.throughput_heuristic);
  EXPECT_EQ(config.queue.capacity, 8);
  EXPECT_EQ(config.compile.assumed_queue_capacity, 8);

  point.merge = 1;
  const harness::RunConfig multi =
      harness::ApplyTunePoint(harness::RunConfig{}, point);
  EXPECT_TRUE(multi.compile.multi_pair_merge);
  EXPECT_FALSE(multi.compile.throughput_heuristic);
}

TEST(Autotune, SimulatesOnlyTheFrontierAndNeverLosesToDefault) {
  const kernels::SequoiaKernel& spec = KernelById("umt2k-2");
  const harness::TuneSpace space;  // 54 points
  harness::TuneOptions options;
  options.sweep_threads = 1;
  const harness::TuneResult result = harness::AutotuneKernel(
      kernels::ParseSequoia(spec), kernels::SequoiaInit(spec), space, options);

  EXPECT_EQ(result.enumerated, 54u);
  // Frontier bound: max(1, floor(0.25 * 54)) = 13, default included.
  EXPECT_EQ(result.frontier_size, 13u);
  EXPECT_LE(result.simulated, result.frontier_size);
  std::size_t simulated = 0;
  for (const harness::TuneCandidate& candidate : result.candidates) {
    simulated += candidate.simulated ? 1 : 0;
    if (!candidate.simulated) {
      EXPECT_EQ(candidate.simulated_speedup, 0.0);
    }
  }
  EXPECT_EQ(simulated, result.simulated);
  EXPECT_LE(4 * simulated, result.enumerated + 4);  // the <= 25% contract

  // The default anchors the never-worse guarantee: always simulated, only
  // beaten by a strictly faster simulated point.
  EXPECT_TRUE(result.candidates[result.default_index].simulated);
  EXPECT_TRUE(result.candidates[result.best_index].simulated);
  EXPECT_GE(result.best_speedup, result.default_speedup);
  EXPECT_EQ(harness::BestPoint(result),
            result.candidates[result.best_index].point);
}

TEST(Autotune, FrontierFindsTheExhaustiveBestOnAGoldenSpace) {
  // A reduced golden space (16 points) small enough to simulate
  // exhaustively: the 25%-frontier run must land on the same best point
  // with the same simulated speedup as the simulate-everything run, and
  // repeated frontier runs must be byte-identical.
  harness::TuneSpace space;
  space.core_counts = {2, 4};
  space.queue_capacities = {4, 20};
  space.merges = {0, 2};
  space.speculation = {false, true};

  const kernels::SequoiaKernel& spec = KernelById("umt2k-2");
  const ir::Kernel kernel = kernels::ParseSequoia(spec);
  const harness::WorkloadInit init = kernels::SequoiaInit(spec);

  harness::TuneOptions exhaustive_options;
  exhaustive_options.sweep_threads = 1;
  exhaustive_options.frontier_fraction = 1.0;
  const harness::TuneResult exhaustive =
      harness::AutotuneKernel(kernel, init, space, exhaustive_options);
  EXPECT_EQ(exhaustive.enumerated, 16u);
  EXPECT_EQ(exhaustive.frontier_size, 16u);
  EXPECT_EQ(exhaustive.simulated, 16u);

  harness::TuneOptions frontier_options;
  frontier_options.sweep_threads = 1;  // default frontier_fraction = 0.25
  const harness::TuneResult frontier =
      harness::AutotuneKernel(kernel, init, space, frontier_options);
  EXPECT_EQ(frontier.frontier_size, 4u);
  EXPECT_LE(frontier.simulated, 4u);

  EXPECT_EQ(harness::BestPoint(frontier), harness::BestPoint(exhaustive));
  EXPECT_DOUBLE_EQ(frontier.best_speedup, exhaustive.best_speedup);
  EXPECT_GE(frontier.best_speedup, frontier.default_speedup);

  const harness::TuneResult again =
      harness::AutotuneKernel(kernel, init, space, frontier_options);
  EXPECT_EQ(harness::EncodeTuneArtifact(again),
            harness::EncodeTuneArtifact(frontier));
}

TEST(Autotune, TuneArtifactRoundTripsAndRejectsWrongSchema) {
  harness::TuneSpace space;
  space.core_counts = {2};
  space.queue_capacities = {4};
  space.merges = {0, 1};
  space.speculation = {false};

  const kernels::SequoiaKernel& spec = KernelById("lammps-1");
  harness::TuneOptions options;
  options.sweep_threads = 1;
  options.frontier_fraction = 1.0;
  const harness::TuneResult result = harness::AutotuneKernel(
      kernels::ParseSequoia(spec), kernels::SequoiaInit(spec), space, options);

  const std::string json = harness::EncodeTuneArtifact(result);
  EXPECT_NE(json.find(harness::kTuneSchema), std::string::npos);
  const harness::TuneResult parsed = harness::ParseTuneArtifact(json);
  EXPECT_EQ(parsed.kernel, result.kernel);
  EXPECT_EQ(parsed.enumerated, result.enumerated);
  EXPECT_EQ(parsed.frontier_size, result.frontier_size);
  EXPECT_EQ(parsed.simulated, result.simulated);
  EXPECT_EQ(parsed.best_index, result.best_index);
  EXPECT_EQ(parsed.default_index, result.default_index);
  EXPECT_EQ(parsed.best_speedup, result.best_speedup);      // bitwise
  EXPECT_EQ(parsed.default_speedup, result.default_speedup);
  ASSERT_EQ(parsed.candidates.size(), result.candidates.size());
  for (std::size_t i = 0; i < parsed.candidates.size(); ++i) {
    EXPECT_EQ(parsed.candidates[i].point, result.candidates[i].point);
    EXPECT_EQ(parsed.candidates[i].feasible, result.candidates[i].feasible);
    EXPECT_EQ(parsed.candidates[i].simulated, result.candidates[i].simulated);
    EXPECT_EQ(parsed.candidates[i].predicted_speedup,
              result.candidates[i].predicted_speedup);
    EXPECT_EQ(parsed.candidates[i].simulated_speedup,
              result.candidates[i].simulated_speedup);
  }
  // Round-trip stability: parse(encode(x)) re-encodes byte-identically.
  EXPECT_EQ(harness::EncodeTuneArtifact(parsed), json);

  EXPECT_THROW(harness::ParseTuneArtifact("{\"schema\":\"fgpar-tune-v0\"}"),
               Error);
  EXPECT_THROW(harness::ParseTuneArtifact("not json"), Error);
}

/// "<kernel id> <fnv1a64 of its tune artifact>" for each of `specs`, in
/// order, tuned under the default TuneSpace and seed.
std::vector<std::string> TuneArtifactLines(
    const std::vector<kernels::SequoiaKernel>& specs, int sweep_threads) {
  std::vector<std::string> lines;
  for (const kernels::SequoiaKernel& spec : specs) {
    harness::TuneOptions options;
    options.sweep_threads = sweep_threads;
    const std::string artifact = harness::EncodeTuneArtifact(
        harness::AutotuneKernel(kernels::ParseSequoia(spec),
                                kernels::SequoiaInit(spec),
                                harness::TuneSpace{}, options));
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(Fnv1a64(artifact)));
    lines.push_back(spec.id + " " + hash);
  }
  return lines;
}

TEST(AutotuneGolden, TuneArtifactsByteIdentical) {
  const std::vector<std::string> serial =
      TuneArtifactLines(kernels::SequoiaKernels(), /*sweep_threads=*/1);
  if (std::getenv("FGPAR_GOLDEN_PRINT") != nullptr) {
    for (const std::string& line : serial) {
      std::printf("%s\n", line.c_str());
    }
    return;
  }
  std::vector<std::string> golden;
  {
    std::ifstream in(std::string(FGPAR_GOLDEN_DIR) + "/autotune_artifacts.txt");
    std::string id;
    std::string hash;
    while (in >> id >> hash) {
      golden.push_back(id + " " + hash);
    }
  }
  EXPECT_EQ(serial, golden) << "tuner output drifted at one sweep thread";
  EXPECT_EQ(TuneArtifactLines(kernels::SequoiaKernels(), /*sweep_threads=*/4),
            golden)
      << "tuner output drifted at four sweep threads";
}

TEST(AutotuneGolden, ConcurrentFrontierMatchesSerial) {
  // Four sweep threads run one kernel's frontier through one runner at
  // once, all reading and filling its memo: the artifact must not change.
  // Small enough to run under ThreadSanitizer.
  std::vector<kernels::SequoiaKernel> specs;
  for (const std::string id : {"lammps-1", "irs-1", "umt2k-2"}) {
    specs.push_back(KernelById(id));
  }
  EXPECT_EQ(TuneArtifactLines(specs, /*sweep_threads=*/4),
            TuneArtifactLines(specs, /*sweep_threads=*/1));
}

}  // namespace
