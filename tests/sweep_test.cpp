// Tests for the host-parallel sweep engine, the deterministic JSON
// writer, and the BENCH_*.json artifact layer.
//
// The load-bearing property is determinism: a sweep's results — and the
// deterministic portion of any artifact built from them — must be
// byte-identical whether the grid ran on 1 host thread or many.
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/bench_artifact.hpp"
#include "harness/sweep.hpp"
#include "kernels/experiments.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace {

using namespace fgpar;

TEST(Sweep, ResultsInIndexOrderAnyThreadCount) {
  const std::size_t count = 57;
  const auto square = [](std::size_t i) { return i * i; };
  const std::vector<std::size_t> one = harness::RunSweep(count, 1, square);
  for (int threads : {2, 3, 8, 64}) {
    const std::vector<std::size_t> many =
        harness::RunSweep(count, threads, square);
    EXPECT_EQ(many, one) << threads << " threads";
  }
}

TEST(Sweep, EveryIndexRunsExactlyOnce) {
  const std::size_t count = 101;
  std::vector<std::atomic<int>> hits(count);
  harness::detail::RunSweepIndices(count, 7, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Sweep, EmptyAndSingleElementGrids) {
  EXPECT_TRUE(harness::RunSweep(0, 8, [](std::size_t i) { return i; }).empty());
  const auto single = harness::RunSweep(1, 8, [](std::size_t i) { return i + 41; });
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], 41u);
}

TEST(Sweep, FailuresAggregateWithPerPointAttribution) {
  // Two points fail; the sweep must still run every point, then throw one
  // SweepError naming both failures in index order — identically for the
  // inline and the multi-threaded path.
  for (int threads : {1, 4}) {
    std::vector<std::atomic<int>> hits(32);
    try {
      harness::RunSweep(32, threads, [&](std::size_t i) -> int {
        ++hits[i];
        if (i == 13 || i == 17) {
          throw std::runtime_error("point " + std::to_string(i) + " failed");
        }
        return static_cast<int>(i);
      });
      FAIL() << "expected a SweepError (threads=" << threads << ")";
    } catch (const harness::SweepError& e) {
      ASSERT_EQ(e.failures().size(), 2u) << "threads=" << threads;
      EXPECT_EQ(e.failures()[0].index, 13u);
      EXPECT_EQ(e.failures()[0].message, "point 13 failed");
      EXPECT_EQ(e.failures()[1].index, 17u);
      EXPECT_EQ(e.failures()[1].message, "point 17 failed");
      EXPECT_EQ(e.total_points(), 32u);
      const std::string what = e.what();
      EXPECT_NE(what.find("2 of 32 points"), std::string::npos) << what;
      EXPECT_NE(what.find("point 13: point 13 failed"), std::string::npos);
      EXPECT_NE(what.find("point 17: point 17 failed"), std::string::npos);
      // The original exceptions stay rethrowable with their concrete type.
      try {
        std::rethrow_exception(e.failures()[0].exception);
        FAIL() << "expected the original runtime_error";
      } catch (const std::runtime_error& orig) {
        EXPECT_STREQ(orig.what(), "point 13 failed");
      }
    }
    // A failure must not skip any other point.
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(Sweep, ResolveThreadsPrecedence) {
  // An explicit request wins over everything.
  EXPECT_EQ(harness::ResolveSweepThreads(3), 3);
  // Otherwise the environment variable decides...
  ASSERT_EQ(setenv("FGPAR_SWEEP_THREADS", "5", 1), 0);
  EXPECT_EQ(harness::ResolveSweepThreads(0), 5);
  EXPECT_EQ(harness::ResolveSweepThreads(2), 2);
  // ...unless it is not a positive integer, which falls through to the
  // hardware concurrency (>= 1).
  ASSERT_EQ(setenv("FGPAR_SWEEP_THREADS", "bogus", 1), 0);
  EXPECT_GE(harness::ResolveSweepThreads(0), 1);
  ASSERT_EQ(unsetenv("FGPAR_SWEEP_THREADS"), 0);
  EXPECT_GE(harness::ResolveSweepThreads(0), 1);
}

TEST(Json, WriterProducesStableDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("demo \"quoted\"\n");
  w.Key("values");
  w.BeginArray();
  w.Int(-3);
  w.UInt(18446744073709551615ull);
  w.Double(0.1);
  w.Bool(true);
  w.EndArray();
  w.Key("empty");
  w.BeginObject();
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.Take(),
            "{\n"
            "  \"name\": \"demo \\\"quoted\\\"\\n\",\n"
            "  \"values\": [\n"
            "    -3,\n"
            "    18446744073709551615,\n"
            "    0.1,\n"
            "    true\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}\n");
}

TEST(Json, DoublesRoundTripShortest) {
  JsonWriter w;
  w.BeginArray();
  w.Double(1.0 / 3.0);
  w.Double(2.05);
  w.EndArray();
  // std::to_chars shortest round-trip form: parsing the text must yield
  // the exact same bits, and the text itself is host-independent.
  EXPECT_EQ(w.Take(), "[\n  0.3333333333333333,\n  2.05\n]\n");
}

using BenchArtifact = harness::BenchArtifact;

BenchArtifact ArtifactFromRuns(const std::vector<harness::KernelRun>& runs,
                               int threads, double wall) {
  harness::BenchArtifact artifact;
  artifact.name = "sweep_test";
  for (const harness::KernelRun& run : runs) {
    harness::BenchArtifact::Point point;
    point.label = run.kernel_name;
    point.params["cores"] = "2";
    harness::AddKernelRunFields(run, point);
    point.host["wall_seconds"] = wall;  // deliberately thread-dependent
    artifact.points.push_back(std::move(point));
  }
  artifact.host["sweep_threads"] = threads;
  artifact.host["wall_seconds"] = wall;
  return artifact;
}

TEST(Artifact, DeterministicAcrossSweepThreadCounts) {
  // The real pipeline, both serial and host-parallel: identical kernel
  // results, and byte-identical artifacts once host fields are excluded.
  kernels::ExperimentConfig config;
  config.cores = 2;
  config.sweep_threads = 1;
  const std::vector<harness::KernelRun> serial = kernels::RunAllKernels(config);
  config.sweep_threads = 4;
  const std::vector<harness::KernelRun> parallel =
      kernels::RunAllKernels(config);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].kernel_name, parallel[i].kernel_name);
    EXPECT_EQ(serial[i].seq_cycles, parallel[i].seq_cycles);
    EXPECT_EQ(serial[i].par_cycles, parallel[i].par_cycles);
    EXPECT_DOUBLE_EQ(serial[i].speedup, parallel[i].speedup);
  }

  const BenchArtifact a = ArtifactFromRuns(serial, 1, 0.125);
  const BenchArtifact b = ArtifactFromRuns(parallel, 4, 99.5);
  EXPECT_EQ(a.ToJson(/*include_host=*/false), b.ToJson(/*include_host=*/false));
  // Sanity: the host fields do differ, so the exclusion is load-bearing.
  EXPECT_NE(a.ToJson(/*include_host=*/true), b.ToJson(/*include_host=*/true));
}

TEST(Artifact, WriteFileHonorsBenchDir) {
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
  ASSERT_EQ(setenv("FGPAR_BENCH_DIR", dir.c_str(), 1), 0);
  BenchArtifact artifact;
  artifact.name = "sweep_test_write";
  const std::string path = artifact.WriteFile();
  EXPECT_EQ(path, dir + "/BENCH_sweep_test_write.json");
  std::remove(path.c_str());
  ASSERT_EQ(unsetenv("FGPAR_BENCH_DIR"), 0);
}

TEST(Artifact, WriteFileCreatesMissingBenchDir) {
  const char* tmp = std::getenv("TMPDIR");
  const std::filesystem::path root =
      std::filesystem::path(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") /
      ("fgpar_bench_dir_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  const std::string dir = (root / "nested" / "artifacts").string();
  ASSERT_EQ(setenv("FGPAR_BENCH_DIR", dir.c_str(), 1), 0);
  BenchArtifact artifact;
  artifact.name = "sweep_test_mkdir";
  const std::string path = dir + "/BENCH_sweep_test_mkdir.json";
  EXPECT_EQ(artifact.WriteFile(), path);
  EXPECT_TRUE(std::filesystem::is_regular_file(path));

  // A directory that cannot be created (a file is in the way) is a
  // structured error that names the path.
  const std::string blocked = path + "/sub";
  ASSERT_EQ(setenv("FGPAR_BENCH_DIR", blocked.c_str(), 1), 0);
  try {
    artifact.WriteFile();
    ADD_FAILURE() << "WriteFile into " << blocked << " did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(blocked), std::string::npos)
        << e.what();
  }
  ASSERT_EQ(unsetenv("FGPAR_BENCH_DIR"), 0);
  std::filesystem::remove_all(root);
}

}  // namespace
