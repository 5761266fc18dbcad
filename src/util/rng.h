#ifndef RANDRANK_UTIL_RNG_H_
#define RANDRANK_UTIL_RNG_H_

#include <cassert>
#include <cstdint>

namespace randrank {

/// Deterministic, seedable pseudo-random generator (xoshiro256++ with a
/// splitmix64-expanded seed). Satisfies UniformRandomBitGenerator, so it can
/// be passed to <random> distributions, but the convenience members below are
/// preferred inside the library: they are reproducible across standard-library
/// implementations, which <random> distributions are not.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four 64-bit lanes from `seed` via splitmix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  // The four draws below are the serving path's hot members; they are
  // defined in this header so every policy's per-slot draws inline.

  /// Next raw 64-bit draw (xoshiro256++).
  uint64_t operator()() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
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
    // 53 high bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) using Lemire's unbiased multiply-shift.
  /// `bound` must be positive.
  uint64_t NextIndex(uint64_t bound) {
    assert(bound > 0);
    // Lemire's nearly-divisionless unbiased bounded sampling.
    uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// True with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Exponentially distributed draw with the given rate (mean 1/rate).
  double NextExponential(double rate);

  /// Poisson draw. Uses Knuth's product method for small means and a
  /// normal approximation above `mean > 64`.
  uint64_t NextPoisson(double mean);

  /// Standard normal via Marsaglia polar method.
  double NextGaussian();

  /// Derives an independent generator for a parallel task or subsystem.
  Rng Fork();

  /// Advances the state by 2^192 draws (xoshiro256++ long-jump). Partitions
  /// one seed's sequence into non-overlapping streams of 2^192 draws each.
  void LongJump();

  /// Stream `stream` of the sequence seeded by `seed`: Rng(seed) advanced by
  /// `stream` long-jumps. Distinct streams never overlap, which makes this
  /// the preferred way to hand each serving worker its own generator.
  /// Cost is O(stream), so derive streams once at worker creation.
  static Rng ForStream(uint64_t seed, uint64_t stream);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// splitmix64 step; exposed for hashing/seeding helpers.
uint64_t SplitMix64(uint64_t* state);

}  // namespace randrank

#endif  // RANDRANK_UTIL_RNG_H_
