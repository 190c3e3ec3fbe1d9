// Deterministic pseudo-random number generation.
//
// Wraps a 64-bit SplitMix/xoshiro-style generator so every experiment is
// reproducible from a single seed, and child generators can be forked for
// independent processes without correlation.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace lp {

/// Deterministic RNG (xoshiro256** core, SplitMix64 seeding).
///
/// Satisfies UniformRandomBitGenerator so it also works with <random>
/// distributions where needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64 random bits.
  std::uint64_t operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller.
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with the given mean (mean > 0).
  double exponential(double mean);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p);

  /// Forks an independent child generator (stream split).
  Rng fork();

 private:
  std::uint64_t state_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

/// A modeled duration as an executor actually takes it: `base` stretched by
/// `scale` and a multiplicative jitter max(0.2, 1 + frac * N(0, 1)) drawn
/// from `rng` (one normal draw), never below 1 ns.
DurationNs jittered(DurationNs base, double frac, Rng& rng, double scale = 1.0);

}  // namespace lp
