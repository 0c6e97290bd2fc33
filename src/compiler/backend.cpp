#include "compiler/backend.hpp"

#include <string>

#include "support/error.hpp"

namespace fgpar::compiler {

std::string_view BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSim: return "sim";
    case BackendKind::kNative: return "native";
  }
  FGPAR_UNREACHABLE("bad BackendKind");
}

BackendKind ParseBackendKind(std::string_view name) {
  if (name == "sim") return BackendKind::kSim;
  if (name == "native") return BackendKind::kNative;
  throw Error("unknown backend '" + std::string(name) +
              "' (expected sim or native)");
}

}  // namespace fgpar::compiler
