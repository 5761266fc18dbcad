#ifndef RANDRANK_SERVE_EPOCH_PREFIX_CACHE_H_
#define RANDRANK_SERVE_EPOCH_PREFIX_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/rank_snapshot.h"

namespace randrank {

/// Per-epoch materialization of everything in a ServingView that is
/// invariant across queries: the global deterministic order, the global
/// pool, and — via the policy's BuildEpochState hook — whatever per-epoch
/// serving state the family derives from them (Plackett-Luce's alias table,
/// ts-promo's coin table; the other shipped families need nothing beyond
/// the view itself).
///
/// Within one snapshot epoch every query realizes over the *same* global
/// deterministic order, pool, and policy state; only the per-query draws
/// are fresh randomness. ShardedRankServer::Update builds all of it once,
/// off the serving path, when the writer publishes the epoch: one pass
/// partitions the pages, one SortByRankOrder orders the deterministic list,
/// and BuildEpochState runs on the result. Per-query work collapses to the
/// policy's single-view ServePrefix against `AsView()` + `policy_state` —
/// for the promotion family a protected-prefix copy plus an O(m) randomized
/// splice, for Plackett-Luce O(m) expected alias draws. Every published
/// epoch carries one; it is the only view queries read.
///
/// Lifecycle / invalidation: a cache is owned by the ServingView it
/// describes, so it is immutable after publish, shared lock-free by all
/// serving threads, and invalidated the only way a view itself is — by the
/// atomic publish of the next epoch's view (readers pick up the new cache
/// on their next version check; the old one is reclaimed with its view once
/// the last reader moves on).
struct EpochPrefixCache {
  /// Epoch of the ServingView this cache was built for.
  uint64_t epoch = 0;
  /// Global deterministic order (every page outside the pool, sorted by the
  /// global sort key RankOrderBefore), best first. Its leading entries are
  /// the protected head; each policy's ServePrefix derives the head's
  /// length from its own parameters (k - 1 for the promotion family).
  std::vector<uint32_t> det;
  /// Sort keys of `det`, so weighted families see a complete global view.
  std::vector<double> det_score;
  /// Global stochastic pool, unshuffled: shard by shard (page p on shard
  /// p % ServeOptions::shards), ascending id within each. Served lists
  /// depend on this order, since pool draws index into it.
  std::vector<uint32_t> pool;
  /// The policy's opaque per-epoch state over the global view
  /// (BuildEpochState product); handed back to ServePrefix on every query.
  /// Null for families whose epoch-invariant state is the view alone
  /// (promotion, epsilon-tail).
  std::shared_ptr<const PolicyEpochState> policy_state;

  size_t n() const { return det.size() + pool.size(); }

  /// The cached global state as a borrowed single policy view.
  ShardView AsView() const {
    return {det.data(), det_score.data(), det.size(), pool.data(),
            pool.size()};
  }

  /// Runs the S-way deterministic merge (BestDetHead) over `view`'s shard
  /// snapshots, concatenates their pools, and builds the policy state.
  /// O(n·S) time, O(n) memory. The server does not call it; kept only for
  /// perfbench/probes.cc.
  static std::shared_ptr<const EpochPrefixCache> Build(const ServingView& view);
};

}  // namespace randrank

#endif  // RANDRANK_SERVE_EPOCH_PREFIX_CACHE_H_
