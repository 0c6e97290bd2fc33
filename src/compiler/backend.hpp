// The backend seam below the lowering stage.
//
// A Backend consumes the target-independent LoweredProgram (lowered.hpp)
// and materializes something executable.  Two implementations exist:
//
//  * the sim backend (here): emits the sim ISA image that the cycle-level
//    simulator runs — the historical single target, byte-identical to the
//    pre-seam lowering and guarded by the tests/golden/ captures;
//  * the native backend (src/native/backend.hpp): compiles each partition
//    into a callable host function run on a pinned std::thread worker, with
//    enq/deq mapped onto lock-free SPSC ring buffers.
//
// The compiler library only knows the interface and the sim implementation;
// the native backend lives in its own library (fgpar_native) so the sim
// pipeline carries no thread-runtime dependencies.
#pragma once

#include <memory>
#include <string_view>

#include "compiler/lowered.hpp"
#include "isa/program.hpp"

namespace fgpar::compiler {

/// Which execution backend a run targets.  Plumbed through RunConfig,
/// experiments, fgparc --backend, and fig12 --backend.
enum class BackendKind : std::uint8_t { kSim = 0, kNative };

/// Stable lowercase name ("sim", "native").
std::string_view BackendKindName(BackendKind kind);

/// Inverse of BackendKindName; throws fgpar::Error on an unknown name.
BackendKind ParseBackendKind(std::string_view name);

/// A materialized program.  Concrete type depends on the backend; callers
/// downcast via the kind() tag (SimProgram below, native::NativeProgram).
class BackendProgram {
 public:
  virtual ~BackendProgram() = default;
  virtual BackendKind kind() const = 0;
};

class Backend {
 public:
  virtual ~Backend() = default;
  virtual BackendKind kind() const = 0;

  /// Materializes the lowered form.  The returned program may keep
  /// non-owning references into `lowered`'s kernel/layout/plan, which must
  /// therefore outlive it.
  virtual std::unique_ptr<BackendProgram> Compile(
      const LoweredProgram& lowered) const = 0;
};

/// The sim backend's product: a container around the sim ISA image.
class SimProgram final : public BackendProgram {
 public:
  explicit SimProgram(isa::Program program) : program_(std::move(program)) {}
  BackendKind kind() const override { return BackendKind::kSim; }
  const isa::Program& program() const { return program_; }
  isa::Program Take() && { return std::move(program_); }

 private:
  isa::Program program_;
};

class SimBackend final : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::kSim; }
  std::unique_ptr<BackendProgram> Compile(
      const LoweredProgram& lowered) const override;
};

/// Process-wide sim backend instance (stateless).
const Backend& SimBackendInstance();

/// Lowers through the sim backend and unwraps the ISA image — the pipeline's
/// lower stage calls this so CompileState::program keeps its historical type.
isa::Program LowerToSim(const LoweredProgram& lowered);

}  // namespace fgpar::compiler
