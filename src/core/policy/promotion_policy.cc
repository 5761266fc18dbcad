#include "core/policy/promotion_policy.h"

#include <algorithm>
#include <cassert>

#include "core/rank_merge.h"

namespace randrank {

bool PromotionPolicy::PoolMembership(bool zero_awareness, Rng& rng) const {
  return PromoteToPool(config_, zero_awareness, rng);
}

bool PromotionPolicy::NextSlot(size_t det_remaining, size_t pool_remaining,
                               Rng& rng) const {
  return NextSlotFromPool(config_.r, det_remaining, pool_remaining, rng);
}

size_t PromotionPolicy::ServePrefix(const ShardView* views, size_t num_views,
                                    const PolicyEpochState* epoch_state,
                                    PolicyScratch& scratch, size_t m, Rng& rng,
                                    std::vector<uint32_t>* out) const {
  assert(num_views == 1 && "ServePrefix takes the one pre-merged view");
  (void)num_views;
  (void)epoch_state;  // stateless: the merged view carries everything
  // The protected-prefix copy plus the O(m) randomized splice.
  scratch.pool_sampler.Reset(views[0].pool, views[0].pool_size);
  return MergePrefixCached(config_, views[0].det, views[0].det_size,
                           scratch.pool_sampler, m, rng, out);
}

std::vector<uint32_t> PromotionPolicy::MaterializeReference(
    const ShardView& global, Rng& rng) const {
  // The slot-by-slot cascade of Ranker::MaterializeList: explicit
  // Fisher-Yates shuffle of the pool, then biased-coin interleave.
  std::vector<uint32_t> pool(global.pool, global.pool + global.pool_size);
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.NextIndex(i)]);
  }
  std::vector<uint32_t> out;
  out.reserve(global.n());
  const size_t protected_prefix =
      std::min(config_.k - 1, global.det_size);
  size_t d = 0;
  size_t s = 0;
  while (d < protected_prefix) out.push_back(global.det[d++]);
  while (d < global.det_size || s < pool.size()) {
    const bool from_pool = NextSlotFromPool(config_.r, global.det_size - d,
                                            pool.size() - s, rng);
    out.push_back(from_pool ? pool[s++] : global.det[d++]);
  }
  return out;
}

std::shared_ptr<const StochasticRankingPolicy> MakePromotionPolicy(
    const RankPromotionConfig& config) {
  return std::make_shared<PromotionPolicy>(config);
}

}  // namespace randrank
