#ifndef RANDRANK_SERVE_EPOCH_PREFIX_CACHE_H_
#define RANDRANK_SERVE_EPOCH_PREFIX_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/rank_snapshot.h"

namespace randrank {

/// Per-epoch materialization of everything in a ServingView that is
/// invariant across queries: the cross-shard deterministic merge order, the
/// concatenated global pool, and — via the policy's BuildEpochState hook —
/// whatever per-epoch serving state the family derives from that merged
/// view (Plackett-Luce's alias table; the other shipped families need
/// nothing beyond the merged view itself).
///
/// Within one snapshot epoch every query realizes over the *same* global
/// deterministic order, pool, and policy state; only the per-query draws
/// are fresh randomness. Re-running the S-way merge (and any per-epoch
/// policy precomputation) per query therefore redoes identical work on the
/// hot path. This cache runs all of it once, off the serving path, when the
/// writer publishes the epoch; per-query work collapses to the policy's
/// single-view ServePrefix against `AsView()` + `policy_state` — for the
/// promotion family a protected-prefix copy plus an O(m) randomized splice,
/// for Plackett-Luce O(m) expected alias draws — independent of the shard
/// count. Every published epoch carries one; it is the only view queries
/// read.
///
/// Lifecycle / invalidation: a cache is built by ShardedRankServer::Update
/// and owned by the ServingView it describes, so it is immutable after
/// publish, shared lock-free by all serving threads, and invalidated the
/// only way a view itself is — by the atomic publish of the next epoch's
/// view (readers pick up the new cache on their next version check; the old
/// one is reclaimed with its view once the last reader moves on).
struct EpochPrefixCache {
  /// Epoch of the ServingView this cache was built from.
  uint64_t epoch = 0;
  /// Global deterministic merge order (all shards interleaved by the global
  /// sort key RankOrderBefore), best first. Its leading entries are the
  /// protected head; each policy's ServePrefix derives the head's length
  /// from its own parameters (k - 1 for the promotion family).
  std::vector<uint32_t> det;
  /// Sort keys of `det`, carried through the merge so weighted families see
  /// a complete global view.
  std::vector<double> det_score;
  /// Global stochastic pool (all shards concatenated, unshuffled; order is
  /// irrelevant because every draw path shuffles uniformly).
  std::vector<uint32_t> pool;
  /// The policy's opaque per-epoch state over the merged global view
  /// (BuildEpochState product); handed back to ServePrefix on every query.
  /// Null for families whose epoch-invariant state is the merged view alone
  /// (promotion, epsilon-tail, ts-promo).
  std::shared_ptr<const PolicyEpochState> policy_state;

  size_t n() const { return det.size() + pool.size(); }

  /// The cached global state as a borrowed single policy view.
  ShardView AsView() const {
    return {det.data(), det_score.data(), det.size(), pool.data(),
            pool.size()};
  }

  /// Wall-clock split of one Build call, for the publish-phase trace spans:
  /// the S-way merge + pool concatenation vs the policy's BuildEpochState.
  struct BuildPhaseTimings {
    double merge_us = 0.0;
    double epoch_state_us = 0.0;
  };

  /// Runs the S-way deterministic merge over `view`'s shard snapshots and
  /// concatenates their pools. O(n·S) time, O(n) memory; called once per
  /// publish by the writer, never on the query path. With `timings` non-null
  /// the two build phases are clocked (a few extra clock reads; pass null
  /// when nothing consumes them).
  static std::shared_ptr<const EpochPrefixCache> Build(
      const ServingView& view, BuildPhaseTimings* timings = nullptr);
};

}  // namespace randrank

#endif  // RANDRANK_SERVE_EPOCH_PREFIX_CACHE_H_
