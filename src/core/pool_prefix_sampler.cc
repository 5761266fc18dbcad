#include "core/pool_prefix_sampler.h"

#include <algorithm>
#include <cassert>

namespace randrank {

void PoolPrefixSampler::Reset(const uint32_t* pool, size_t size,
                              size_t max_draws) {
  assert(size < UINT32_MAX);  // slots are the map's uint32 keys
  pool_ = pool;
  size_ = size;
  taken_ = 0;
  // Each draw records at most one displaced slot.
  moved_.Reset(std::min(size, max_draws));
}

uint32_t PoolPrefixSampler::Next(Rng& rng) {
  assert(taken_ < size_);
  const auto i = static_cast<uint32_t>(taken_++);
  const auto j = static_cast<uint32_t>(i + rng.NextIndex(size_ - i));
  const uint32_t result = moved_.Get(j, pool_[j]);
  if (j != i) {
    // Classic Fisher-Yates swap, recorded sparsely: slot j now holds what
    // slot i held. Slot i is never read again, so its entry can stay.
    moved_.Put(j, moved_.Get(i, pool_[i]));
  }
  return result;
}

}  // namespace randrank
