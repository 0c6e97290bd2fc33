// Predictor cross-validation: the analytic latency-hiding model vs the
// simulator, across the 18 Table-I kernels plus a generated fuzz corpus.
//
// For every kernel the bench computes the predicted 4-core speedup
// (KernelRunner::Predict, i.e. model::PredictKernelOnWorkload — rewrite
// front half + static merge, costed against the prepared workload, no
// simulation) and the measured speedup (KernelRunner::Run on the same
// runner), then reports Spearman rank correlation and mean relative error
// per corpus.
// The predictor's job is candidate *ranking*, so rank correlation is the
// headline number; the relative error says how honest the magnitudes are.
//
// Flags:
//   --fuzz N        generated-kernel corpus size (default 50; 0 disables)
//   --floor FILE    JSON floor file ({"spearman_sequoia": ..,
//                   "spearman_fuzz": ..}); exits 1 when either measured
//                   correlation drops below its floor — the CI gate
//
// Artifact: BENCH_predictor.json — one point per kernel with
// predicted_speedup / rel_error beside the standard measured fields, plus
// a "summary" point carrying the correlations.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/random_kernel.hpp"
#include "kernels/experiments.hpp"
#include "model/analytic.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace {

using namespace fgpar;

struct ValidationPoint {
  std::string name;
  std::string group;  // "sequoia" | "fuzz"
  bool ok = false;    // prediction + measurement both succeeded
  std::string note;
  double predicted = 0.0;
  model::Prediction prediction;
  harness::KernelRun run;
  double wall_seconds = 0.0;
};

ValidationPoint ValidateKernel(const std::string& name,
                               const std::string& group,
                               const ir::Kernel& kernel,
                               const harness::WorkloadInit& init) {
  ValidationPoint point;
  point.name = name;
  point.group = group;
  const auto start = std::chrono::steady_clock::now();
  try {
    const kernels::ExperimentConfig experiment;  // Section V defaults
    harness::RunConfig config = kernels::ToRunConfig(experiment);
    harness::KernelRunner runner(kernel, init);
    point.prediction = runner.Predict(config);
    point.predicted = point.prediction.speedup;
    point.run = runner.Run(config);
    point.run.kernel_name = name;
    point.ok = true;
  } catch (const Error& e) {
    point.note = e.what();
  }
  point.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return point;
}

/// Correlation + error summary over one corpus (the `ok` points only).
struct CorpusSummary {
  std::size_t total = 0;
  std::size_t usable = 0;
  double spearman = 0.0;
  double mean_rel_error = 0.0;
};

CorpusSummary Summarize(const std::vector<ValidationPoint>& points,
                        const std::string& group) {
  CorpusSummary summary;
  std::vector<double> predicted;
  std::vector<double> measured;
  double rel_error_sum = 0.0;
  for (const ValidationPoint& point : points) {
    if (point.group != group) {
      continue;
    }
    ++summary.total;
    if (!point.ok || point.run.speedup <= 0.0) {
      continue;
    }
    ++summary.usable;
    predicted.push_back(point.predicted);
    measured.push_back(point.run.speedup);
    rel_error_sum +=
        std::abs(point.predicted - point.run.speedup) / point.run.speedup;
  }
  if (summary.usable >= 2) {
    summary.spearman = SpearmanCorrelation(predicted, measured);
  }
  if (summary.usable > 0) {
    summary.mean_rel_error =
        rel_error_sum / static_cast<double>(summary.usable);
  }
  return summary;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fgpar;

  const auto start = std::chrono::steady_clock::now();
  const long long fuzz_count = benchutil::FlagInt(argc, argv, "--fuzz", 50);
  const std::string floor_path = benchutil::FlagValue(argc, argv, "--floor");
  const int threads = harness::ResolveSweepThreads(0);

  const std::vector<kernels::SequoiaKernel>& corpus =
      kernels::SequoiaKernels();
  const std::size_t grid =
      corpus.size() + static_cast<std::size_t>(fuzz_count);
  const std::vector<ValidationPoint> points =
      harness::RunSweep(grid, threads, [&](std::size_t i) {
        if (i < corpus.size()) {
          const kernels::SequoiaKernel& kernel = corpus[i];
          return ValidateKernel(kernel.id, "sequoia",
                                kernels::ParseSequoia(kernel),
                                kernels::SequoiaInit(kernel));
        }
        // The fuzz corpus: structurally varied generated kernels, seeded
        // deterministically so every run validates the same programs.
        const std::uint64_t seed =
            0xF00D + static_cast<std::uint64_t>(i - corpus.size());
        harness::RandomKernelCase random = harness::GenerateRandomKernel(seed);
        return ValidateKernel("fuzz_" + std::to_string(seed), "fuzz",
                              random.kernel, random.init);
      });

  const CorpusSummary sequoia = Summarize(points, "sequoia");
  const CorpusSummary fuzz = Summarize(points, "fuzz");

  TextTable table({"Kernel", "Predicted", "Measured", "RelErr"});
  for (const ValidationPoint& point : points) {
    if (point.group != "sequoia") {
      continue;
    }
    table.AddRow({point.name, FormatFixed(point.predicted, 2),
                  FormatFixed(point.run.speedup, 2),
                  point.run.speedup > 0.0
                      ? FormatFixed(std::abs(point.predicted -
                                             point.run.speedup) /
                                        point.run.speedup,
                                    2)
                      : "-"});
  }
  table.AddSeparator();
  table.AddRow({"spearman (sequoia)", FormatFixed(sequoia.spearman, 3), "",
                FormatFixed(sequoia.mean_rel_error, 2)});
  table.AddRow({"spearman (fuzz, n=" + std::to_string(fuzz.usable) + ")",
                FormatFixed(fuzz.spearman, 3), "",
                FormatFixed(fuzz.mean_rel_error, 2)});
  std::printf("%s\n",
              table
                  .Render("Predictor cross-validation: analytic model vs "
                          "simulated 4-core speedup")
                  .c_str());

  harness::BenchArtifact artifact;
  artifact.name = "predictor";
  for (const ValidationPoint& point : points) {
    harness::BenchArtifact::Point p;
    p.label = point.name + " group=" + point.group;
    p.params["kernel"] = point.name;
    p.params["group"] = point.group;
    p.params["cores"] = "4";
    if (point.ok) {
      harness::AddKernelRunFields(point.run, p);
      p.metrics["predicted_speedup"] = point.predicted;
      p.metrics["predicted_seq_cost"] = point.prediction.sequential_cost;
      p.metrics["predicted_par_cost"] = point.prediction.parallel_cost;
      const analysis::PartitionFeatures& f = point.prediction.features;
      p.metrics["feature_partitions"] = static_cast<double>(f.partitions);
      p.metrics["feature_balance_ratio"] = f.balance_ratio;
      p.metrics["feature_transfers"] = static_cast<double>(f.transfers);
      p.metrics["feature_bottleneck_cost"] = f.bottleneck_cost;
      p.metrics["feature_critical_path"] = f.critical_path;
      p.metrics["feature_cycle_penalty"] = f.cycle_penalty;
      if (point.run.speedup > 0.0) {
        p.metrics["rel_error"] =
            std::abs(point.predicted - point.run.speedup) / point.run.speedup;
      }
    } else {
      p.params["error"] = point.note;
    }
    p.host["wall_seconds"] = point.wall_seconds;
    artifact.points.push_back(std::move(p));
  }
  harness::BenchArtifact::Point summary;
  summary.label = "summary";
  summary.params["kind"] = "summary";
  summary.metrics["spearman_sequoia"] = sequoia.spearman;
  summary.metrics["spearman_fuzz"] = fuzz.spearman;
  summary.metrics["mean_rel_error_sequoia"] = sequoia.mean_rel_error;
  summary.metrics["mean_rel_error_fuzz"] = fuzz.mean_rel_error;
  summary.counters["usable_sequoia"] = sequoia.usable;
  summary.counters["usable_fuzz"] = fuzz.usable;
  artifact.points.push_back(std::move(summary));
  artifact.host["sweep_threads"] = threads;
  artifact.host["wall_seconds"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  benchutil::EmitArtifact(artifact);

  // ---- the CI gate: correlations must clear the checked-in floor ----
  if (!floor_path.empty()) {
    std::ifstream in(floor_path);
    if (!in) {
      std::fprintf(stderr, "cannot open floor file %s\n", floor_path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const JsonValue floors = ParseJson(buffer.str());
    const double sequoia_floor = floors.Get("spearman_sequoia").AsDouble();
    const double fuzz_floor = floors.Get("spearman_fuzz").AsDouble();
    if (sequoia.spearman < sequoia_floor || fuzz.spearman < fuzz_floor) {
      std::fprintf(stderr,
                   "predictor floor violated: sequoia %.3f (floor %.3f), "
                   "fuzz %.3f (floor %.3f)\n",
                   sequoia.spearman, sequoia_floor, fuzz.spearman, fuzz_floor);
      return 1;
    }
    std::fprintf(stderr,
                 "predictor floor OK: sequoia %.3f >= %.3f, fuzz %.3f >= "
                 "%.3f\n",
                 sequoia.spearman, sequoia_floor, fuzz.spearman, fuzz_floor);
  }
  return 0;
}
