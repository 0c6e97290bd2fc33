#include "harness/autotune.hpp"

#include <algorithm>
#include <cmath>

#include "harness/supervisor.hpp"
#include "model/analytic.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace fgpar::harness {

std::string_view MergeShapeName(int merge) {
  switch (merge) {
    case 0:
      return "affinity";
    case 1:
      return "multi_pair";
    case 2:
      return "throughput";
    default:
      throw Error("unknown merge shape code " + std::to_string(merge));
  }
}

int MergeShapeFromName(std::string_view name) {
  if (name == "affinity") {
    return 0;
  }
  if (name == "multi_pair") {
    return 1;
  }
  if (name == "throughput") {
    return 2;
  }
  throw Error("unknown merge shape name '" + std::string(name) + "'");
}

std::string TunePointLabel(const TunePoint& point) {
  std::string label = "c";
  label += std::to_string(point.cores);
  label += " q";
  label += std::to_string(point.queue_capacity);
  label += point.speculation ? " spec=1" : " spec=0";
  label += " merge=";
  label += MergeShapeName(point.merge);
  return label;
}

std::vector<TunePoint> TuneSpace::Enumerate() const {
  std::vector<TunePoint> points;
  for (int cores : core_counts) {
    for (int capacity : queue_capacities) {
      for (int merge : merges) {
        for (bool spec : speculation) {
          TunePoint point;
          point.cores = cores;
          point.queue_capacity = capacity;
          point.speculation = spec;
          point.merge = merge;
          points.push_back(point);
        }
      }
    }
  }
  return points;
}

RunConfig ApplyTunePoint(RunConfig base, const TunePoint& point) {
  base.compile.num_cores = point.cores;
  base.compile.speculation = point.speculation;
  base.compile.multi_pair_merge = point.merge == 1;
  base.compile.throughput_heuristic = point.merge == 2;
  base.queue.capacity = point.queue_capacity;
  return base;
}

const TunePoint& BestPoint(const TuneResult& result) {
  FGPAR_CHECK_MSG(result.best_index < result.candidates.size(),
                  "tune result best_index out of range");
  return result.candidates[result.best_index].point;
}

TuneResult AutotuneKernel(const ir::Kernel& kernel, const WorkloadInit& init,
                          const TuneSpace& space, const TuneOptions& options) {
  TuneResult result;
  result.kernel = kernel.name();

  std::vector<TunePoint> points = space.Enumerate();
  FGPAR_CHECK_MSG(!points.empty(), "autotune space enumerates no points");
  // The default config is part of the space by construction: it must be
  // simulated to anchor the never-worse-than-default guarantee.
  auto default_it = std::find(points.begin(), points.end(),
                              options.default_point);
  if (default_it == points.end()) {
    points.push_back(options.default_point);
    default_it = std::prev(points.end());
  }
  result.default_index =
      static_cast<std::size_t>(default_it - points.begin());
  result.enumerated = points.size();

  KernelRunner runner(kernel, init);
  RunConfig base;
  base.seed = options.seed;
  base.collect_profile = true;
  base.tune_by_simulation = false;  // static selection, same as the predictor

  // ---- predict every point (compile front half only) ----
  result.candidates.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    TuneCandidate candidate;
    candidate.index = i;
    candidate.point = points[i];
    try {
      const model::Prediction prediction =
          runner.Predict(ApplyTunePoint(base, points[i]));
      candidate.feasible = true;
      candidate.predicted_speedup = prediction.speedup;
    } catch (const Error& e) {
      candidate.note = e.what();
    }
    result.candidates.push_back(std::move(candidate));
  }

  // ---- rank and pick the frontier (top predicted + the default) ----
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const TuneCandidate& ca = result.candidates[a];
                     const TuneCandidate& cb = result.candidates[b];
                     if (ca.feasible != cb.feasible) {
                       return ca.feasible;
                     }
                     if (ca.predicted_speedup != cb.predicted_speedup) {
                       return ca.predicted_speedup > cb.predicted_speedup;
                     }
                     return a < b;
                   });
  const std::size_t target = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(
             options.frontier_fraction *
             static_cast<double>(result.enumerated))));
  std::vector<std::size_t> frontier(
      order.begin(),
      order.begin() + static_cast<std::ptrdiff_t>(
                          std::min(target, order.size())));
  if (std::find(frontier.begin(), frontier.end(), result.default_index) ==
      frontier.end()) {
    // The default replaces the worst frontier member, keeping the
    // simulated share at the configured bound.
    frontier.back() = result.default_index;
  }
  std::sort(frontier.begin(), frontier.end());  // simulate in index order
  result.frontier_size = frontier.size();

  // ---- simulate the frontier under the supervisor ----
  SupervisorConfig supervisor_config;
  supervisor_config.name = "autotune-" + result.kernel;
  for (std::size_t index : frontier) {
    supervisor_config.labels.push_back(
        TunePointLabel(result.candidates[index].point));
  }
  supervisor_config.sweep_threads = options.sweep_threads;
  SweepSupervisor supervisor(supervisor_config);
  const SweepOutcome outcome = supervisor.Run([&](const PointContext& ctx) {
    return EncodeKernelRun(
        runner.Run(ApplyTunePoint(base, points[frontier[ctx.index]])));
  });
  for (std::size_t local = 0; local < frontier.size(); ++local) {
    TuneCandidate& candidate = result.candidates[frontier[local]];
    if (local < outcome.completed.size() && outcome.completed[local]) {
      const KernelRun run = DecodeKernelRun(outcome.payloads[local]);
      candidate.simulated = true;
      candidate.simulated_speedup = run.speedup;
      ++result.simulated;
    }
  }
  for (const PointFailure& failure : outcome.failures) {
    result.candidates[frontier[failure.index]].note = failure.message;
  }

  // ---- choose: the default, unless a frontier member simulated strictly
  // faster (ties keep the default / the earlier index) ----
  result.best_index = result.default_index;
  result.best_speedup =
      result.candidates[result.default_index].simulated_speedup;
  result.default_speedup = result.best_speedup;
  for (std::size_t index : frontier) {
    const TuneCandidate& candidate = result.candidates[index];
    if (candidate.simulated &&
        candidate.simulated_speedup > result.best_speedup) {
      result.best_index = index;
      result.best_speedup = candidate.simulated_speedup;
    }
  }
  return result;
}

// ---- fgpar-tune-v1 codec ---------------------------------------------------

std::string EncodeTuneArtifact(const TuneResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String(kTuneSchema);
  w.Key("kernel");
  w.String(result.kernel);
  w.Key("enumerated");
  w.UInt(result.enumerated);
  w.Key("frontier");
  w.UInt(result.frontier_size);
  w.Key("simulated");
  w.UInt(result.simulated);
  w.Key("default_index");
  w.UInt(result.default_index);
  w.Key("best_index");
  w.UInt(result.best_index);
  w.Key("default_speedup");
  w.Double(result.default_speedup);
  w.Key("best_speedup");
  w.Double(result.best_speedup);
  w.Key("candidates");
  w.BeginArray();
  for (const TuneCandidate& candidate : result.candidates) {
    w.BeginObject();
    w.Key("index");
    w.UInt(candidate.index);
    w.Key("cores");
    w.Int(candidate.point.cores);
    w.Key("queue_capacity");
    w.Int(candidate.point.queue_capacity);
    w.Key("speculation");
    w.Bool(candidate.point.speculation);
    w.Key("merge");
    w.String(MergeShapeName(candidate.point.merge));
    w.Key("feasible");
    w.Bool(candidate.feasible);
    w.Key("predicted_speedup");
    w.Double(candidate.predicted_speedup);
    w.Key("simulated");
    w.Bool(candidate.simulated);
    w.Key("simulated_speedup");
    w.Double(candidate.simulated_speedup);
    if (!candidate.note.empty()) {
      w.Key("note");
      w.String(candidate.note);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

TuneResult ParseTuneArtifact(std::string_view json) {
  const JsonValue doc = ParseJson(json);
  const std::string& schema = doc.Get("schema").AsString();
  if (schema != kTuneSchema) {
    throw Error("tune artifact has schema '" + schema + "', expected '" +
                kTuneSchema + "'");
  }
  TuneResult result;
  result.kernel = doc.Get("kernel").AsString();
  result.enumerated = static_cast<std::size_t>(doc.Get("enumerated").AsU64());
  result.frontier_size = static_cast<std::size_t>(doc.Get("frontier").AsU64());
  result.simulated = static_cast<std::size_t>(doc.Get("simulated").AsU64());
  result.default_index =
      static_cast<std::size_t>(doc.Get("default_index").AsU64());
  result.best_index = static_cast<std::size_t>(doc.Get("best_index").AsU64());
  result.default_speedup = doc.Get("default_speedup").AsDouble();
  result.best_speedup = doc.Get("best_speedup").AsDouble();
  for (const JsonValue& entry : doc.Get("candidates").AsArray()) {
    TuneCandidate candidate;
    candidate.index = static_cast<std::size_t>(entry.Get("index").AsU64());
    candidate.point.cores = static_cast<int>(entry.Get("cores").AsI64());
    candidate.point.queue_capacity =
        static_cast<int>(entry.Get("queue_capacity").AsI64());
    candidate.point.speculation = entry.Get("speculation").AsBool();
    candidate.point.merge =
        MergeShapeFromName(entry.Get("merge").AsString());
    candidate.feasible = entry.Get("feasible").AsBool();
    candidate.predicted_speedup = entry.Get("predicted_speedup").AsDouble();
    candidate.simulated = entry.Get("simulated").AsBool();
    candidate.simulated_speedup = entry.Get("simulated_speedup").AsDouble();
    if (const JsonValue* note = entry.Find("note")) {
      candidate.note = note->AsString();
    }
    result.candidates.push_back(std::move(candidate));
  }
  if (result.best_index >= result.candidates.size() ||
      result.default_index >= result.candidates.size()) {
    throw Error("tune artifact indices out of range");
  }
  return result;
}

}  // namespace fgpar::harness
