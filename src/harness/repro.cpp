#include "harness/repro.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/json.hpp"

namespace fgpar::harness {

namespace {

constexpr const char kSchema[] = "fgpar-repro-v1";

void WriteWholeFile(const std::filesystem::path& path,
                    const char* data, std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  FGPAR_CHECK_MSG(out.good(), "cannot open " + path.string() + " for writing");
  out.write(data, static_cast<std::streamsize>(size));
  out.close();
  FGPAR_CHECK_MSG(out.good(), "failed writing " + path.string());
}

std::string ReadWholeFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  FGPAR_CHECK_MSG(in.good(), "cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::string WriteReproBundle(const std::string& dir, const std::string& name,
                             const ReproBundle& bundle) {
  const std::filesystem::path root = std::filesystem::path(dir) / name;
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  FGPAR_CHECK_MSG(!ec, "cannot create repro bundle directory " + root.string() +
                           ": " + ec.message());

  WriteWholeFile(root / "kernel.fk", bundle.kernel_source.data(),
                 bundle.kernel_source.size());
  WriteWholeFile(root / "snapshot.bin",
                 reinterpret_cast<const char*>(bundle.snapshot.data()),
                 bundle.snapshot.size());

  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String(kSchema);
  w.Key("experiment");
  w.String(bundle.experiment);
  w.Key("label");
  w.String(bundle.label);
  w.Key("point_index");
  w.UInt(bundle.point_index);
  w.Key("kernel");
  w.BeginObject();
  w.Key("id");
  w.String(bundle.kernel_id);
  w.Key("trip");
  w.Int(bundle.trip);
  w.Key("f64_params");
  w.BeginObject();
  for (const auto& [key, value] : bundle.f64_params) {
    w.Key(key);
    w.Double(value);
  }
  w.EndObject();
  w.EndObject();
  w.Key("config");
  w.BeginObject();
  w.Key("cores");
  w.Int(bundle.config.compile.num_cores);
  w.Key("speculation");
  w.Bool(bundle.config.compile.speculation);
  w.Key("throughput_heuristic");
  w.Bool(bundle.config.compile.throughput_heuristic);
  w.Key("queue_capacity");
  w.Int(bundle.config.queue.capacity);
  w.Key("transfer_latency");
  w.Int(bundle.config.queue.transfer_latency);
  w.Key("threads_per_core");
  w.Int(bundle.config.threads_per_core);
  w.Key("tune_by_simulation");
  w.Bool(bundle.config.tune_by_simulation);
  w.Key("seed");
  w.UInt(bundle.config.seed);
  w.Key("max_cycles");
  w.UInt(bundle.config.max_cycles);
  w.EndObject();
  w.Key("failure");
  w.BeginObject();
  w.Key("message");
  w.String(bundle.failure_message);
  w.EndObject();
  w.EndObject();
  const std::string manifest = w.Take();
  WriteWholeFile(root / "manifest.json", manifest.data(), manifest.size());
  return root.string();
}

ReproBundle LoadReproBundle(const std::string& dir) {
  const std::filesystem::path root(dir);
  const JsonValue manifest = ParseJson(ReadWholeFile(root / "manifest.json"));
  FGPAR_CHECK_MSG(manifest.Get("schema").AsString() == kSchema,
                  dir + "/manifest.json: unsupported schema '" +
                      manifest.Get("schema").AsString() + "' (this build reads " +
                      kSchema + ")");

  ReproBundle bundle;
  bundle.experiment = manifest.Get("experiment").AsString();
  bundle.label = manifest.Get("label").AsString();
  bundle.point_index = manifest.Get("point_index").AsU64();

  const JsonValue& kernel = manifest.Get("kernel");
  bundle.kernel_id = kernel.Get("id").AsString();
  bundle.trip = kernel.Get("trip").AsI64();
  for (const auto& [key, value] : kernel.Get("f64_params").AsObject()) {
    bundle.f64_params[key] = value.AsDouble();
  }
  bundle.kernel_source = ReadWholeFile(root / "kernel.fk");

  const JsonValue& config = manifest.Get("config");
  bundle.config.compile.num_cores =
      static_cast<int>(config.Get("cores").AsI64());
  bundle.config.compile.speculation = config.Get("speculation").AsBool();
  bundle.config.compile.throughput_heuristic =
      config.Get("throughput_heuristic").AsBool();
  bundle.config.queue.capacity =
      static_cast<int>(config.Get("queue_capacity").AsI64());
  bundle.config.queue.transfer_latency =
      static_cast<int>(config.Get("transfer_latency").AsI64());
  bundle.config.threads_per_core =
      static_cast<int>(config.Get("threads_per_core").AsI64());
  bundle.config.tune_by_simulation = config.Get("tune_by_simulation").AsBool();
  bundle.config.seed = config.Get("seed").AsU64();
  bundle.config.max_cycles = config.Get("max_cycles").AsU64();

  const JsonValue& failure = manifest.Get("failure");
  bundle.failure_message = failure.Get("message").AsString();

  const std::string snapshot = ReadWholeFile(root / "snapshot.bin");
  bundle.snapshot.assign(snapshot.begin(), snapshot.end());
  return bundle;
}

}  // namespace fgpar::harness
