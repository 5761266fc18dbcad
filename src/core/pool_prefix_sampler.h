#ifndef RANDRANK_CORE_POOL_PREFIX_SAMPLER_H_
#define RANDRANK_CORE_POOL_PREFIX_SAMPLER_H_

#include <cstddef>
#include <cstdint>

#include "util/flat_u32_map.h"
#include "util/rng.h"

namespace randrank {

/// Draws elements of a fixed pool uniformly at random without replacement,
/// resolving only the slots actually requested (sparse Fisher-Yates: swaps
/// are recorded in a flat hash map instead of a copied array). Drawing the
/// first m of z pool elements costs O(m) expected time and memory,
/// independent of z — the property the serving layer relies on to answer
/// top-m queries without materializing the whole pool.
///
/// The referenced pool array must outlive the sampler and stay unchanged
/// until the next Reset(). Reset() rebinds without releasing the map's
/// capacity, so a per-query sampler does not allocate in steady state.
class PoolPrefixSampler {
 public:
  PoolPrefixSampler() = default;
  PoolPrefixSampler(const uint32_t* pool, size_t size) { Reset(pool, size); }

  /// Rebinds to a new pool and restarts the shuffle, sized for at most
  /// `max_draws` Next() calls before the next Reset (the whole pool by
  /// default).
  void Reset(const uint32_t* pool, size_t size, size_t max_draws = SIZE_MAX);

  /// Next element of the lazily shuffled pool. remaining() must be > 0.
  uint32_t Next(Rng& rng);

  size_t remaining() const { return size_ - taken_; }
  size_t size() const { return size_; }

 private:
  const uint32_t* pool_ = nullptr;
  size_t size_ = 0;
  size_t taken_ = 0;
  FlatU32Map moved_;  // slot -> displaced value
};

}  // namespace randrank

#endif  // RANDRANK_CORE_POOL_PREFIX_SAMPLER_H_
