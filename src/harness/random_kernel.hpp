// Random kernel generation for property-based testing.
//
// Generates structurally varied but always-valid kernels (random expression
// trees, gathers through an index array, conditionals, reductions) together
// with a matching workload initializer.  The compiler test suite feeds
// these through the full interpreter / sequential / parallel triple check:
// whatever the partitioner decides for an arbitrary program, memory must
// come out bit-identical.
#pragma once

#include <cstdint>

#include "harness/runner.hpp"
#include "ir/kernel.hpp"

namespace fgpar::harness {

struct RandomKernelCase {
  ir::Kernel kernel;
  WorkloadInit init;
};

/// Deterministic in `seed`.  `with_conditionals` adds if/else statements
/// (including an occasional @speculate one); `with_reduction` adds a
/// loop-carried accumulator and an epilogue store.
RandomKernelCase GenerateRandomKernel(std::uint64_t seed,
                                      bool with_conditionals = true,
                                      bool with_reduction = true);

/// A wide loop of `stmts` seeded statements for compile-time scaling: each
/// defines a temp from 2-4 reads of eight input arrays, subtracts an
/// earlier temp with probability 0.4, and stores it to its own output
/// array.  About two code-graph nodes per statement, and no memory
/// conflicts, so the graph's width grows linearly with `stmts`.
ir::Kernel GenerateWideKernel(std::uint64_t seed, int stmts);

}  // namespace fgpar::harness
