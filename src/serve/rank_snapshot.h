#ifndef RANDRANK_SERVE_RANK_SNAPSHOT_H_
#define RANDRANK_SERVE_RANK_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/policy/stochastic_ranking_policy.h"
#include "util/rng.h"

namespace randrank {

/// An immutable snapshot of one shard's ranking state: the deterministic
/// order Ld (best first, with the sort keys kept alongside for a
/// cross-shard merge) plus the promotion pool Pp, servable standalone
/// (TopM / PageAtRank). Immutable after Build, so any number of threads may
/// read it. ShardedRankServer does not build these (its publish sorts the
/// whole corpus at once); kept only because perfbench/probes.cc builds
/// per-shard snapshots and merges them with
/// EpochPrefixCache::Build(const ServingView&), and for its own tests.
struct RankSnapshot {
  /// Monotone publish generation; every shard snapshot in one ServingView
  /// carries the same epoch.
  uint64_t epoch = 0;
  /// The policy this snapshot was partitioned under.
  std::shared_ptr<const StochasticRankingPolicy> policy;

  /// Deterministically ranked pages of this shard, best first (global ids).
  std::vector<uint32_t> det;
  /// Sort keys of `det`, kept so a cross-shard merge can interleave several
  /// shards' lists exactly as one global sort would have (and so weighted
  /// families can score their draws).
  std::vector<double> det_score;
  std::vector<int64_t> det_birth;
  /// Stochastic pool of this shard (unshuffled, global ids).
  std::vector<uint32_t> pool;
  /// Policy-owned per-epoch state over this shard's own view (Build calls
  /// the policy's BuildEpochState hook), reused by every TopM/PageAtRank
  /// against this snapshot. Null for stateless families, and when the
  /// builder opted out (see Build).
  std::shared_ptr<const PolicyEpochState> epoch_state;

  size_t n() const { return det.size() + pool.size(); }

  /// This shard's state as a borrowed policy view (valid while the snapshot
  /// lives — snapshots are immutable after Build).
  ShardView AsView() const {
    return {det.data(), det_score.data(), det.size(), pool.data(),
            pool.size()};
  }

  /// First min(m, n()) slots of a fresh random realization of this shard's
  /// merged list, appended to `out`: the policy's ServePrefix over AsView().
  size_t TopM(size_t m, Rng& rng, std::vector<uint32_t>* out) const;

  /// Page at `rank` (1-based) in an independent realization: the last slot
  /// of a length-`rank` TopM.
  uint32_t PageAtRank(size_t rank, Rng& rng) const;

  /// Builds a snapshot for the shard owning `pages` from global page state,
  /// mirroring Ranker::Update: pool membership per the policy's hook, then
  /// the remainder sorted by SortByRankOrder. `rng` is only drawn from when
  /// the policy's PoolMembership draws (the uniform promotion rule;
  /// membership is re-sampled per build, as in Ranker).
  /// `build_epoch_state` controls whether the per-shard BuildEpochState
  /// product is materialized: callers that serve this snapshot directly
  /// (TopM/PageAtRank) want it; callers that merge the shards into an
  /// EpochPrefixCache pass false, since the cache builds the global state.
  static std::shared_ptr<const RankSnapshot> Build(
      std::shared_ptr<const StochasticRankingPolicy> policy, uint64_t epoch,
      const std::vector<uint32_t>& pages, const std::vector<double>& popularity,
      const std::vector<uint8_t>& zero_awareness,
      const std::vector<int64_t>& birth_step, Rng& rng,
      bool build_epoch_state = true);
};

/// One step of the S-way deterministic merge: the index of the shard whose
/// det-list head (at its cursor) is next under the global sort key
/// RankOrderBefore, or `shards` when every list is exhausted.
/// EpochPrefixCache::Build(const ServingView&) runs it to completion; like
/// that overload it is kept only for perfbench/probes.cc.
size_t BestDetHead(const RankSnapshot* const* snaps, const size_t* cursors,
                   size_t shards);

struct EpochPrefixCache;
struct ServeObsHooks;

/// One published generation of the whole server, swapped in atomically as
/// a unit so a query never observes state from two different epochs.
struct ServingView {
  uint64_t epoch = 0;
  /// The policy this epoch was ranked and is served under. Queries dispatch
  /// through it — never through server-level mutable state — so a policy
  /// hot-swap (ShardedRankServer::Update with a new policy) is exactly as
  /// atomic as the epoch publish itself: every query realizes under the one
  /// policy its pinned view was built with, even while the writer publishes
  /// a different one.
  std::shared_ptr<const StochasticRankingPolicy> policy;
  /// Per-shard snapshots to merge with EpochPrefixCache::Build(const
  /// ServingView&). Published views leave it empty; kept only for
  /// perfbench/probes.cc.
  std::vector<std::shared_ptr<const RankSnapshot>> shards;
  /// The epoch's deterministic order, global pool and policy state (see
  /// serve/epoch_prefix_cache.h) — what every query realizes against.
  /// Built by the writer at every publish; immutable after it and
  /// invalidated only by the next epoch's view.
  std::shared_ptr<const EpochPrefixCache> cache;
  /// Observability endpoints resolved at publish time (the per-query
  /// latency histogram for this epoch's policy family, the trace sink, span
  /// attributes — see ServeObsHooks in
  /// serve/sharded_rank_server.h). Carried by the view, not the server, so
  /// a query pinned to an old epoch during a hot-swap records into the
  /// metrics that match what actually served it. Null when the server runs
  /// without observability — the hot path then pays one branch.
  std::shared_ptr<const ServeObsHooks> obs;
};

}  // namespace randrank

#endif  // RANDRANK_SERVE_RANK_SNAPSHOT_H_
