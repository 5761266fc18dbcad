#include "util/rng.h"

#include <cassert>
#include <cmath>

namespace randrank {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  // xoshiro256++ must not start from the all-zero state; splitmix64 expansion
  // guarantees that for any seed.
  uint64_t s = seed;
  for (auto& lane : state_) lane = SplitMix64(&s);
}

double Rng::NextExponential(double rate) {
  assert(rate > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return -std::log(u) / rate;
}

uint64_t Rng::NextPoisson(double mean) {
  assert(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction; adequate for the
    // visit-count magnitudes used by the simulators.
    const double draw = mean + std::sqrt(mean) * NextGaussian() + 0.5;
    return draw <= 0.0 ? 0 : static_cast<uint64_t>(draw);
  }
  const double limit = std::exp(-mean);
  uint64_t count = 0;
  double product = NextDouble();
  while (product > limit) {
    ++count;
    product *= NextDouble();
  }
  return count;
}

double Rng::NextGaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double v1;
  double v2;
  double s;
  do {
    v1 = 2.0 * NextDouble() - 1.0;
    v2 = 2.0 * NextDouble() - 1.0;
    s = v1 * v1 + v2 * v2;
  } while (s >= 1.0 || s == 0.0);
  const double scale = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v2 * scale;
  have_cached_gaussian_ = true;
  return v1 * scale;
}

Rng Rng::Fork() { return Rng((*this)() ^ 0xd1b54a32d192ed03ULL); }

void Rng::LongJump() {
  // Constants from the xoshiro256++ reference implementation (Blackman &
  // Vigna); equivalent to 2^192 calls of operator().
  static constexpr uint64_t kJump[4] = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  uint64_t s0 = 0;
  uint64_t s1 = 0;
  uint64_t s2 = 0;
  uint64_t s3 = 0;
  for (const uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ULL << b)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      (*this)();
    }
  }
  state_[0] = s0;
  state_[1] = s1;
  state_[2] = s2;
  state_[3] = s3;
  have_cached_gaussian_ = false;
}

Rng Rng::ForStream(uint64_t seed, uint64_t stream) {
  Rng rng(seed);
  for (uint64_t i = 0; i < stream; ++i) rng.LongJump();
  return rng;
}

}  // namespace randrank
