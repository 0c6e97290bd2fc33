// Which execution backend a run targets.
//
//  * kSim: the compiled sim ISA image runs on the cycle-level simulator
//    (compiler/lower.hpp, sim/machine.hpp);
//  * kNative: the kernel additionally runs for real on pinned host threads
//    connected by SPSC rings (native/executor.hpp).
#pragma once

#include <cstdint>
#include <string_view>

namespace fgpar::compiler {

/// Plumbed through RunConfig, experiments, fgparc --backend, and fig12
/// --backend.
enum class BackendKind : std::uint8_t { kSim = 0, kNative };

/// Stable lowercase name ("sim", "native").
std::string_view BackendKindName(BackendKind kind);

/// Inverse of BackendKindName; throws fgpar::Error on an unknown name.
BackendKind ParseBackendKind(std::string_view name);

}  // namespace fgpar::compiler
