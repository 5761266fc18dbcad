#include "serve/epoch_prefix_cache.h"

#include <cassert>
#include <chrono>

#include "core/rank_merge.h"
#include "fault/fault.h"

namespace randrank {

std::shared_ptr<const EpochPrefixCache> EpochPrefixCache::Build(
    const ServingView& view, BuildPhaseTimings* timings) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point build_start =
      timings != nullptr ? Clock::now() : Clock::time_point();
  // Fault site: a kFail rule here aborts the merge phase (the caller's
  // transactional publish rolls back); kDelay simulates a slow merge.
  fault::CheckAbortable(fault::kPublishMerge, fault::Hash(fault::kPublishMerge),
                        view.epoch);
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
  // completion. Linear scan over S per element; S is small and this runs
  // off the serving path.
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

  const Clock::time_point merge_done =
      timings != nullptr ? Clock::now() : Clock::time_point();

  // Fault site: abort or slow the epoch-state phase specifically.
  fault::CheckAbortable(fault::kPublishEpochState,
                        fault::Hash(fault::kPublishEpochState), view.epoch);

  // Policy-owned per-epoch state over the *merged* global view — distinct
  // from the per-shard states the snapshots carry, because the serve path
  // realizes over this cache's concatenated arrays. Built last so the view
  // handed to the hook is final.
  if (!view.shards.empty()) {
    cache->policy_state =
        view.shards.front()->policy->BuildEpochState(cache->AsView());
  }
  if (timings != nullptr) {
    timings->merge_us =
        std::chrono::duration<double, std::micro>(merge_done - build_start)
            .count();
    timings->epoch_state_us =
        std::chrono::duration<double, std::micro>(Clock::now() - merge_done)
            .count();
  }
  return cache;
}

}  // namespace randrank
