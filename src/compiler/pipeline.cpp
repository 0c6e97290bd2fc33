#include "compiler/pipeline.hpp"

#include <optional>

#include "ir/printer.hpp"
#include "ir/validate.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace fgpar::compiler {

namespace {

int CountStmts(const ir::Kernel& kernel) {
  int count = 0;
  kernel.VisitAllStmts([&](const ir::Stmt&) { ++count; });
  return count;
}

}  // namespace

PassManager& PassManager::Add(std::unique_ptr<Pass> pass) {
  FGPAR_CHECK_MSG(!HasPass(pass->name()),
                  "duplicate pass '" + std::string(pass->name()) +
                      "' in pipeline '" + name_ + "'");
  passes_.push_back(std::move(pass));
  return *this;
}

std::vector<std::string> PassManager::PassNames() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& pass : passes_) {
    names.emplace_back(pass->name());
  }
  return names;
}

bool PassManager::HasPass(const std::string& name) const {
  for (const auto& pass : passes_) {
    if (name == pass->name()) {
      return true;
    }
  }
  return false;
}

std::string PassManager::Describe() const {
  std::string out = "pipeline '" + name_ + "' (" +
                    std::to_string(passes_.size()) + " passes):\n";
  for (const auto& pass : passes_) {
    std::string name = pass->name();
    if (name.size() < 10) {
      name.append(10 - name.size(), ' ');
    }
    out += "  " + name + " " + pass->description() + "\n";
  }
  return out;
}

void PassManager::Run(CompileState& state,
                      const PipelineInstrumentation* instrumentation) const {
  static const PipelineInstrumentation kDefaults;
  const PipelineInstrumentation& instr =
      instrumentation != nullptr ? *instrumentation : kDefaults;
  telemetry::TelemetrySink* sink = instr.telemetry;
  // The enclosing "pipeline" span brackets the whole run; it completes
  // (and is emitted) after every per-pass span, carrying the pipeline's
  // identity for consumers that only see the event stream.
  std::optional<telemetry::ScopedSpan> pipeline_span;
  if (sink != nullptr) {
    pipeline_span.emplace(sink, "pipeline", name_);
  }
  for (const auto& pass : passes_) {
    const std::string pass_name = pass->name();
    // The "pass" span's wall time covers exactly the pass's Run (the
    // before/after IR counts and the validators are bracketed outside it,
    // mirroring the pre-telemetry measurement).
    std::optional<telemetry::ScopedSpan> span;
    if (sink != nullptr) {
      span.emplace(sink, "pass", pass_name);
      span->Note("stmts_before", CountStmts(state.kernel()));
      span->Note("temps_before",
                 static_cast<std::int64_t>(state.kernel().temps().size()));
      span->Note("exprs_before",
                 static_cast<std::int64_t>(state.kernel().expr_count()));
      state.current_counters = &span->counters();
    }
    try {
      pass->Run(state);
    } catch (...) {
      state.current_counters = nullptr;
      throw;
    }
    state.current_counters = nullptr;
    if (span.has_value()) {
      span->Note("stmts_after", CountStmts(state.kernel()));
      span->Note("temps_after",
                 static_cast<std::int64_t>(state.kernel().temps().size()));
      span->Note("exprs_after",
                 static_cast<std::int64_t>(state.kernel().expr_count()));
      span.reset();  // completes the span: wall time stops here
    }

    // The manager, not the next pass, is what catches a broken rewrite:
    // every IR-mutating pass is followed by the full kernel validator, and
    // failures are attributed to the pass that produced the invalid IR.
    if (pass->mutates_ir()) {
      try {
        ir::CheckValid(state.kernel());
      } catch (const Error& e) {
        throw Error("pass '" + pass_name + "' (pipeline '" + name_ +
                    "') produced invalid IR: " + e.what());
      }
    }
    try {
      pass->CheckInvariants(state);
    } catch (const Error& e) {
      throw Error("pass '" + pass_name + "' (pipeline '" + name_ +
                  "') violated its invariants: " + e.what());
    }

    if (instr.dump_sink &&
        (instr.dump_after == "all" || instr.dump_after == pass_name)) {
      instr.dump_sink(pass_name, ir::PrintKernel(state.kernel()));
    }
  }
}

std::string FormatCompileSpans(
    const std::string& pipeline,
    const std::vector<telemetry::SpanRecord>& pass_spans) {
  const auto reserved = [](const std::string& key) {
    for (const char* name : kPassSpanReservedKeys) {
      if (key == name) {
        return true;
      }
    }
    return false;
  };
  const auto counter = [](const telemetry::SpanRecord& span,
                          const char* key) -> std::int64_t {
    const auto it = span.counters.find(key);
    return it != span.counters.end() ? it->second : 0;
  };
  double total_wall_seconds = 0.0;
  for (const telemetry::SpanRecord& span : pass_spans) {
    total_wall_seconds += span.wall_seconds;
  }
  std::string out = "compile pipeline '" + pipeline + "': " +
                    std::to_string(pass_spans.size()) + " passes, " +
                    FormatFixed(total_wall_seconds * 1e3, 3) + " ms total\n";
  auto pad = [](std::string s, std::size_t width) {
    if (s.size() < width) {
      s.insert(0, width - s.size(), ' ');
    }
    return s;
  };
  out += "  pass        wall_ms      stmts      temps      exprs  counters\n";
  for (const telemetry::SpanRecord& span : pass_spans) {
    auto delta = [&](const char* prefix) {
      return std::to_string(counter(span, (std::string(prefix) + "_before").c_str())) +
             "->" +
             std::to_string(counter(span, (std::string(prefix) + "_after").c_str()));
    };
    std::string counters;
    for (const auto& [key, value] : span.counters) {
      if (reserved(key)) {
        continue;
      }
      if (!counters.empty()) {
        counters += " ";
      }
      counters += key + "=" + std::to_string(value);
    }
    out += "  " + span.name +
           std::string(span.name.size() < 10 ? 10 - span.name.size() : 1, ' ') +
           pad(FormatFixed(span.wall_seconds * 1e3, 3), 9) +
           pad(delta("stmts"), 11) + pad(delta("temps"), 11) +
           pad(delta("exprs"), 11) + "  " + counters + "\n";
  }
  return out;
}

void AddScalarRewritePasses(PassManager& manager, const CompileOptions& options,
                            bool parallel) {
  manager.Add(MakeSplitPass());
  manager.Add(MakeFoldPass());
  if (parallel && options.speculation) {
    manager.Add(MakeSpeculatePass());
  }
  manager.Add(MakeForwardPass());
  manager.Add(MakeDcePass());
}

std::vector<std::string> ScalarRewritePassNames(const CompileOptions& options,
                                                bool parallel) {
  PassManager manager("scalar");
  AddScalarRewritePasses(manager, options, parallel);
  return manager.PassNames();
}

PassManager BuildSequentialPipeline(const CompileOptions& options) {
  PassManager manager("sequential");
  AddScalarRewritePasses(manager, options, /*parallel=*/false);
  manager.Add(MakeLowerSequentialPass());
  return manager;
}

PassManager BuildRewritePipeline(const CompileOptions& options) {
  PassManager manager("rewrite");
  AddScalarRewritePasses(manager, options, /*parallel=*/true);
  manager.Add(MakeFiberizePass());
  return manager;
}

PassManager BuildParallelPipeline(const CompileOptions& options) {
  PassManager manager("parallel");
  AddScalarRewritePasses(manager, options, /*parallel=*/true);
  manager.Add(MakeFiberizePass());
  manager.Add(MakeGraphPass());
  manager.Add(MakeMergePass());
  manager.Add(MakeSelectPass());
  return manager;
}

}  // namespace fgpar::compiler
