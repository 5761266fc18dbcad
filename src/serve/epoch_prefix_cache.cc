#include "serve/epoch_prefix_cache.h"

#include <cassert>

namespace randrank {

std::shared_ptr<const EpochPrefixCache> EpochPrefixCache::Build(
    const ServingView& view) {
  auto cache = std::make_shared<EpochPrefixCache>();
  cache->epoch = view.epoch;

  const size_t shards = view.shards.size();
  size_t det_total = 0;
  size_t pool_total = 0;
  for (const auto& shard : view.shards) {
    det_total += shard->det.size();
    pool_total += shard->pool.size();
  }
  cache->det.reserve(det_total);
  cache->det_score.reserve(det_total);
  cache->pool.reserve(pool_total);

  // S-way merge on the global sort key (BestDetHead), run once to
  // completion. Linear scan over S per element.
  std::vector<const RankSnapshot*> snaps;
  snaps.reserve(shards);
  for (const auto& shard : view.shards) snaps.push_back(shard.get());
  std::vector<size_t> cursor(shards, 0);
  for (size_t produced = 0; produced < det_total; ++produced) {
    const size_t best = BestDetHead(snaps.data(), cursor.data(), shards);
    assert(best < shards);
    cache->det.push_back(snaps[best]->det[cursor[best]]);
    cache->det_score.push_back(snaps[best]->det_score[cursor[best]]);
    ++cursor[best];
  }

  for (const auto& shard : view.shards) {
    cache->pool.insert(cache->pool.end(), shard->pool.begin(),
                       shard->pool.end());
  }

  if (!view.shards.empty()) {
    cache->policy_state =
        view.shards.front()->policy->BuildEpochState(cache->AsView());
  }
  return cache;
}

}  // namespace randrank
