// Deterministic pseudo-random number generation.
//
// All randomness in the library (workload initialization, property-test
// program generation) flows through Rng so runs are reproducible from a
// single seed.  The generator is SplitMix64-seeded xoshiro256**, which is
// fast and has no observable bias for our purposes.
#pragma once

#include <array>
#include <cstdint>

namespace fgpar {

/// Deterministic 64-bit PRNG (xoshiro256**).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t NextU64();

  /// Uniform in [0, bound).  bound must be nonzero.
  std::uint64_t NextBelow(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Bernoulli draw with probability p of returning true.
  bool NextBool(double p = 0.5);

 private:
  std::array<std::uint64_t, 4> state_;
};

/// Deterministically combines two seeds into a new one (SplitMix64-based).
/// Used to derive independent per-round streams (workload seeds, generated
/// kernel texts) from one base seed without correlation.
std::uint64_t MixSeed(std::uint64_t a, std::uint64_t b);

}  // namespace fgpar
