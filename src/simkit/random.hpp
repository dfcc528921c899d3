// Deterministic random number generation for workload synthesis.
//
// xoshiro256** (Blackman & Vigna) seeded through SplitMix64. Every consumer
// of randomness in this repository takes an explicit Rng (or a seed) so that
// simulations and generated datasets are reproducible bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace das::sim {

class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed via SplitMix64 so that nearby seeds produce unrelated streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derive a named independent substream (e.g. per node, per file).
  /// The same (parent seed, name) pair always yields the same stream.
  [[nodiscard]] Rng fork(std::string_view name) const;

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Advance the stream past `n` draws, like the std:: engines' discard:
  /// equivalent to `n` next_u64() calls. A cached Box-Muller spare is left
  /// untouched, so the next normal() still returns it.
  void discard(std::uint64_t n);

  /// UniformRandomBitGenerator interface.
  std::uint64_t operator()() { return next_u64(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return UINT64_MAX; }

  /// Uniform in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi). Requires lo < hi.
  double uniform_real(double lo, double hi);

  /// Standard normal via Box-Muller (caches the spare deviate).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

 private:
  explicit Rng(std::array<std::uint64_t, 4> state) : state_(state) {}

  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace das::sim
