// Predecoded instructions: the form every simulated core issues from.
//
// A DecodedProgram is built once per Machine, in its constructor, from the
// Program and that machine's CoreTiming.  Each entry carries everything
// Core::Step needs to issue without re-classifying the opcode: the flat
// source-register lists, the precomputed result latency, the unpipelined
// issue-stage occupancy, and the queue-op classification.  Every run loop
// and the direct-threaded traces (sim/threaded.hpp) read these same
// entries, so the tiers cannot disagree on an instruction's operands or
// latencies.
#pragma once

#include <cstdint>
#include <vector>

#include "isa/program.hpp"
#include "sim/config.hpp"
#include "support/error.hpp"

namespace fgpar::sim {

/// One predecoded instruction: the isa::Instruction fields Core::Execute
/// reads, plus the issue metadata below.
struct DecodedInstruction {
  isa::Opcode op = isa::Opcode::kNop;
  std::uint8_t dst = 0;
  std::uint8_t src1 = 0;
  std::uint8_t src2 = 0;
  std::int16_t queue = -1;
  std::int64_t imm = 0;
  double fimm = 0.0;

  // ---- precomputed issue metadata ----
  std::uint8_t gpr_srcs[3] = {0, 0, 0};
  std::uint8_t num_gpr_srcs = 0;
  std::uint8_t fpr_srcs[3] = {0, 0, 0};
  std::uint8_t num_fpr_srcs = 0;
  bool is_enqueue = false;
  bool is_dequeue = false;
  bool is_fp_queue = false;
  /// ResultLatency(timing, op) for non-memory ops; 0 for loads/stores
  /// (their latency comes from the MemorySystem at execute time).
  std::int32_t result_latency = 0;
  /// Issue-stage occupancy for unpipelined ops (divide/sqrt); 0 means the
  /// op is fully pipelined.
  std::int32_t unpipelined_busy = 0;
};

/// The whole program predecoded against one CoreTiming.
class DecodedProgram {
 public:
  DecodedProgram(const isa::Program& program, const CoreTiming& timing);

  const DecodedInstruction& at(std::int64_t pc) const {
    FGPAR_CHECK_MSG(pc >= 0 && static_cast<std::size_t>(pc) < code_.size(),
                    "pc out of range");
    return code_[static_cast<std::size_t>(pc)];
  }

  std::size_t size() const { return code_.size(); }

  /// Issue-stage occupancy of a taken branch (1 + taken_branch_penalty).
  std::uint64_t taken_branch_busy() const { return taken_branch_busy_; }

 private:
  std::vector<DecodedInstruction> code_;
  std::uint64_t taken_branch_busy_;
};

}  // namespace fgpar::sim
