#include "harness/bench_artifact.hpp"

#include <cstdlib>
#include <fstream>

#include "harness/runner.hpp"
#include "support/buildinfo.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace fgpar::harness {

namespace {

void WriteStringMap(JsonWriter& w, const std::map<std::string, std::string>& m) {
  w.BeginObject();
  for (const auto& [key, value] : m) {
    w.Key(key);
    w.String(value);
  }
  w.EndObject();
}

void WriteDoubleMap(JsonWriter& w, const std::map<std::string, double>& m) {
  w.BeginObject();
  for (const auto& [key, value] : m) {
    w.Key(key);
    w.Double(value);
  }
  w.EndObject();
}

void WriteCounterMap(JsonWriter& w,
                     const std::map<std::string, std::uint64_t>& m) {
  w.BeginObject();
  for (const auto& [key, value] : m) {
    w.Key(key);
    w.UInt(value);
  }
  w.EndObject();
}

}  // namespace

std::string BenchArtifact::ToJson(bool include_host) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("fgpar-bench-v1");
  w.Key("name");
  w.String(name);
  w.Key("points");
  w.BeginArray();
  for (const Point& point : points) {
    w.BeginObject();
    w.Key("label");
    w.String(point.label);
    w.Key("params");
    WriteStringMap(w, point.params);
    w.Key("metrics");
    WriteDoubleMap(w, point.metrics);
    w.Key("counters");
    WriteCounterMap(w, point.counters);
    if (include_host) {
      w.Key("host");
      WriteDoubleMap(w, point.host);
    }
    w.EndObject();
  }
  w.EndArray();
  if (!failures.empty()) {
    w.Key("failures");
    w.BeginArray();
    for (const Failure& failure : failures) {
      w.BeginObject();
      w.Key("index");
      w.UInt(failure.index);
      w.Key("label");
      w.String(failure.label);
      w.Key("message");
      w.String(failure.message);
      w.Key("repro_bundle");
      w.String(failure.repro_bundle);
      w.EndObject();
    }
    w.EndArray();
  }
  if (include_host) {
    w.Key("host");
    WriteDoubleMap(w, host);
    // Build identity travels with the host section: it varies across
    // compilers and build types, so — like wall-clock fields — it must be
    // absent from the byte-deterministic portion.
    w.Key("buildinfo");
    w.BeginObject();
    w.Key("config_hash");
    w.String(BuildConfigHashHex());
    w.Key("version");
    w.String(BuildVersionString());
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
}

std::string BenchArtifact::WriteFile() const {
  FGPAR_CHECK_MSG(!name.empty(), "BenchArtifact::WriteFile without a name");
  std::string dir = ".";
  if (const char* env = std::getenv("FGPAR_BENCH_DIR")) {
    if (*env != '\0') {
      dir = env;
    }
  }
  // FGPAR_BENCH_DETERMINISTIC=1 strips the host objects from the written
  // file, leaving only the portion that is a pure function of the
  // experiment inputs — used by the golden-output guard tests to diff
  // artifacts byte-for-byte across hosts and refactors.
  bool include_host = true;
  if (const char* env = std::getenv("FGPAR_BENCH_DETERMINISTIC")) {
    if (*env != '\0' && *env != '0') {
      include_host = false;
    }
  }
  const std::string path = dir + "/BENCH_" + name + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  FGPAR_CHECK_MSG(out.good(), "cannot open " + path + " for writing");
  out << ToJson(include_host);
  out.close();
  FGPAR_CHECK_MSG(out.good(), "failed writing " + path);
  return path;
}

void AddKernelRunFields(const KernelRun& run, BenchArtifact::Point& point) {
  const telemetry::CounterRegistry registry = KernelRunTelemetry(run);
  registry.ForEachArtifactMetric(
      [&](const std::string& name, double value) {
        point.metrics[name] = value;
      });
  registry.ForEachArtifactCount(
      [&](const std::string& name, std::uint64_t value) {
        point.counters[name] = value;
      });
}

BenchArtifact MakeCompileStatsArtifact(
    const std::string& kernel, const std::string& pipeline,
    const std::vector<telemetry::SpanRecord>& pass_spans) {
  BenchArtifact artifact;
  artifact.name = "compile_" + kernel;
  int index = 0;
  double total_wall_seconds = 0.0;
  for (const telemetry::SpanRecord& span : pass_spans) {
    BenchArtifact::Point point;
    point.label = kernel + " " + pipeline + ":" + span.name;
    point.params["kernel"] = kernel;
    point.params["pipeline"] = pipeline;
    point.params["pass"] = span.name;
    point.params["index"] = std::to_string(index++);
    // The span counters already carry the reserved IR-delta keys
    // (stmts/temps/exprs before/after) next to the pass's Note() counters.
    for (const auto& [key, value] : span.counters) {
      point.counters[key] = static_cast<std::uint64_t>(value);
    }
    point.host["wall_seconds"] = span.wall_seconds;
    total_wall_seconds += span.wall_seconds;
    artifact.points.push_back(std::move(point));
  }
  artifact.host["wall_seconds"] = total_wall_seconds;
  return artifact;
}

}  // namespace fgpar::harness
