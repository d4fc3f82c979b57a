// Deterministic random-number generation for reproducible experiments.
//
// All stochastic elements of the simulation (process variation, thermal
// noise, random attack keys) draw from Xoshiro256** streams derived from
// named seed domains, so every figure of the paper regenerates bit-exactly
// from a single top-level seed.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace analock::sim {

/// SplitMix64 step; used to expand seeds into full generator state.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// Stable 64-bit FNV-1a hash of a string, for deriving domain seeds.
[[nodiscard]] std::uint64_t hash64(std::string_view text);

/// Xoshiro256** pseudo-random generator.
///
/// Satisfies std::uniform_random_bit_generator so it can drive the
/// <random> distributions, but the simulation mostly uses the typed
/// helpers below for speed and clarity.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derives an independent stream for a named domain: the child seed is
  /// hash(domain) mixed with `index` and this generator's seed material.
  [[nodiscard]] Rng fork(std::string_view domain, std::uint64_t index = 0) const;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next_u64(); }

  /// Next raw 64-bit word.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_below(std::uint64_t n);

  /// Standard normal via Box-Muller (cached second deviate).
  double gaussian();

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double sigma);

  /// Leaves the generator exactly where `count` calls to gaussian()
  /// would, without the Box-Muller transform of the deviates it passes
  /// over: the cached deviate is consumed first, each whole pair draws
  /// its uniforms (redrawing a zero u1 as gaussian() does), and an odd
  /// remainder takes one real gaussian() call so the cache matches.
  void skip_gaussians(std::uint64_t count);

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p);

 private:
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_material_ = 0;
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace analock::sim
