#include "support/telemetry/sinks.hpp"

#include <fstream>

#include "support/error.hpp"
#include "support/json.hpp"

namespace fgpar::telemetry {

namespace {

std::size_t KindIndex(SimEventKind kind) {
  return static_cast<std::size_t>(kind);
}
std::size_t CauseIndex(StallCause cause) {
  return static_cast<std::size_t>(cause);
}

std::string QueueTrackName(const SimEvent& event) {
  std::string name = "queue " + std::to_string(event.queue_src) + "->" +
                     std::to_string(event.queue_dst);
  if (event.queue_is_fp) {
    name += " fp";
  }
  return name;
}

SpanRecord ToRecord(const SpanEvent& event) {
  SpanRecord record;
  record.category = std::string(event.category);
  record.name = std::string(event.name);
  record.stream = event.stream;
  record.start_seconds = event.start_seconds;
  record.wall_seconds = event.wall_seconds;
  if (event.counters != nullptr) {
    record.counters = *event.counters;
  }
  return record;
}

}  // namespace

// ---------------------------------------------------------------------------
// AggregatingSink
// ---------------------------------------------------------------------------

void AggregatingSink::OnSim(const SimEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  sim_counts_[KindIndex(event.kind)]++;
  if (event.kind == SimEventKind::kStallEnd) {
    stall_cycles_[CauseIndex(event.cause)] += event.cycle - event.begin_cycle;
  }
}

void AggregatingSink::OnSpan(const SpanEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(ToRecord(event));
}

std::uint64_t AggregatingSink::SimCount(SimEventKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sim_counts_[KindIndex(kind)];
}

std::uint64_t AggregatingSink::StallCycles(StallCause cause) const {
  std::lock_guard<std::mutex> lock(mu_);
  return stall_cycles_[CauseIndex(cause)];
}

std::vector<SpanRecord> AggregatingSink::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<SpanRecord> AggregatingSink::SpansInCategory(
    std::string_view category) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const SpanRecord& span : spans_) {
    if (span.category == category) {
      out.push_back(span);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// ChromeTraceSink
// ---------------------------------------------------------------------------

ChromeTraceSink::ChromeTraceSink(bool include_host)
    : include_host_(include_host) {}

void ChromeTraceSink::OnSim(const SimEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  sim_events_.push_back(event);
}

void ChromeTraceSink::OnSpan(const SpanEvent& event) {
  if (!include_host_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(ToRecord(event));
}

std::string ChromeTraceSink::Render() const {
  std::lock_guard<std::mutex> lock(mu_);

  // Sim streams become Chrome "processes" (pid = stream + 1; pid 0 is the
  // host track).  One cycle renders as one microsecond, so Perfetto's time
  // axis reads directly in cycles.
  std::map<int, bool> sim_pids;  // stream -> seen
  for (const SimEvent& event : sim_events_) {
    sim_pids[event.stream] = true;
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit");
  json.String("ms");
  json.Key("otherData");
  json.BeginObject();
  json.Key("schema");
  json.String("fgpar-trace-v1");
  json.Key("time_unit");
  json.String("1 sim cycle = 1us (sim tracks); real us (host track)");
  json.EndObject();
  json.Key("traceEvents");
  json.BeginArray();

  const auto metadata = [&](int pid, const std::string& name) {
    json.BeginObject();
    json.Key("name");
    json.String("process_name");
    json.Key("ph");
    json.String("M");
    json.Key("pid");
    json.Int(pid);
    json.Key("args");
    json.BeginObject();
    json.Key("name");
    json.String(name);
    json.EndObject();
    json.EndObject();
  };
  if (!spans_.empty()) {
    metadata(0, "host");
  }
  for (const auto& [stream, seen] : sim_pids) {
    (void)seen;
    metadata(stream + 1, "sim stream " + std::to_string(stream));
  }

  for (const SimEvent& event : sim_events_) {
    switch (event.kind) {
      case SimEventKind::kIssue: {
        json.BeginObject();
        json.Key("name");
        json.String(event.name.empty() ? std::string_view("issue")
                                       : event.name);
        json.Key("cat");
        json.String("issue");
        json.Key("ph");
        json.String("X");
        json.Key("ts");
        json.UInt(event.cycle);
        json.Key("dur");
        json.UInt(1);
        json.Key("pid");
        json.Int(event.stream + 1);
        json.Key("tid");
        json.Int(event.core);
        json.Key("args");
        json.BeginObject();
        json.Key("pc");
        json.Int(event.pc);
        json.EndObject();
        json.EndObject();
        break;
      }
      case SimEventKind::kQueueEnqueue:
      case SimEventKind::kQueueDequeue: {
        // Counter track per directional queue: occupancy over time.
        json.BeginObject();
        json.Key("name");
        json.String(QueueTrackName(event));
        json.Key("cat");
        json.String("queue");
        json.Key("ph");
        json.String("C");
        json.Key("ts");
        json.UInt(event.cycle);
        json.Key("pid");
        json.Int(event.stream + 1);
        json.Key("args");
        json.BeginObject();
        json.Key("occupancy");
        json.Int(event.occupancy);
        json.EndObject();
        json.EndObject();
        break;
      }
      case SimEventKind::kStallBegin:
        break;  // rendered as one interval when the stall ends
      case SimEventKind::kStallEnd: {
        json.BeginObject();
        json.Key("name");
        json.String("stall:" + std::string(StallCauseName(event.cause)));
        json.Key("cat");
        json.String("stall");
        json.Key("ph");
        json.String("X");
        json.Key("ts");
        json.UInt(event.begin_cycle);
        json.Key("dur");
        json.UInt(event.cycle - event.begin_cycle);
        json.Key("pid");
        json.Int(event.stream + 1);
        json.Key("tid");
        json.Int(event.core);
        json.Key("args");
        json.BeginObject();
        json.EndObject();
        json.EndObject();
        break;
      }
    }
  }

  for (const SpanRecord& span : spans_) {
    json.BeginObject();
    json.Key("name");
    json.String(span.name);
    json.Key("cat");
    json.String(span.category);
    json.Key("ph");
    json.String("X");
    json.Key("ts");
    json.Double(span.start_seconds * 1e6);
    json.Key("dur");
    json.Double(span.wall_seconds * 1e6);
    json.Key("pid");
    json.Int(0);
    json.Key("tid");
    json.Int(span.stream);
    json.Key("args");
    json.BeginObject();
    for (const auto& [key, value] : span.counters) {
      json.Key(key);
      json.Int(value);
    }
    json.EndObject();
    json.EndObject();
  }

  json.EndArray();
  json.EndObject();
  return json.Take();
}

void ChromeTraceSink::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  FGPAR_CHECK_MSG(out.good(), "cannot open trace output: " + path);
  out << Render();
  FGPAR_CHECK_MSG(out.good(), "failed writing trace output: " + path);
}

// ---------------------------------------------------------------------------
// StreamSink
// ---------------------------------------------------------------------------

void StreamSink::OnSim(const SimEvent& event) {
  SimEvent restamped = event;
  restamped.stream = stream_;
  inner_->OnSim(restamped);
}

void StreamSink::OnSpan(const SpanEvent& event) {
  SpanEvent restamped = event;
  restamped.stream = stream_;
  inner_->OnSpan(restamped);
}

}  // namespace fgpar::telemetry
