#ifndef INFLUMAX_COMMON_RNG_H_
#define INFLUMAX_COMMON_RNG_H_

#include <cstdint>
#include <limits>

namespace influmax {

/// Fast, reproducible pseudo-random generator (xoshiro256**), seeded via
/// SplitMix64. Every randomized component of the library takes an explicit
/// seed so that experiments are replayable; std::mt19937 is avoided because
/// its state is heavy for the per-thread streams used by the Monte Carlo
/// engines.
///
/// Satisfies the UniformRandomBitGenerator named requirement, so it can be
/// plugged into <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds deterministically from `seed` (distinct seeds give independent
  /// streams for practical purposes).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { Reseed(seed); }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  void Reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the 256-bit state; this is the
    // initialization recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t operator()() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  std::uint64_t NextBounded(std::uint64_t bound) {
    // Lemire's multiply-shift rejection method: unbiased and fast.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli draw with success probability `p`.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Exponential draw with mean `mean` (> 0).
  double NextExponential(double mean);

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Draws from a discrete power-law on {1, 2, ...} with exponent `alpha`
  /// (> 1), truncated at `max_value`, via inverse-transform sampling of the
  /// continuous Pareto and rounding down.
  std::uint64_t NextZipf(double alpha, std::uint64_t max_value);

 private:
  static std::uint64_t Rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace influmax

#endif  // INFLUMAX_COMMON_RNG_H_
