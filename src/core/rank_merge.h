#ifndef RANDRANK_CORE_RANK_MERGE_H_
#define RANDRANK_CORE_RANK_MERGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/policy/stochastic_ranking_policy.h"
#include "core/pool_prefix_sampler.h"
#include "core/ranking_policy.h"
#include "util/rng.h"

namespace randrank {

/// The global deterministic ranking key (Appendix A): popularity descending,
/// ties by age (older, i.e. smaller birth step, first), then by page id.
/// Every sorted deterministic list in the system — Ranker::Update, the
/// per-shard serving snapshots, and the cross-shard merge — must order by
/// exactly this predicate, or sharded serving silently stops matching the
/// unsharded distribution. Keep it in one place.
inline bool RankOrderBefore(double score_a, int64_t birth_a, uint32_t page_a,
                            double score_b, int64_t birth_b, uint32_t page_b) {
  if (score_a != score_b) return score_a > score_b;
  if (birth_a != birth_b) return birth_a < birth_b;
  return page_a < page_b;
}

/// The promotion-pool membership decision (paper Section 4): whether a page
/// with the given zero-awareness flag enters Pp under `config`. Like
/// RankOrderBefore, this is the single source of truth — Ranker::Update, the
/// serving snapshots, and the simulator's ghost placement must all agree or
/// sharded serving silently diverges from the simulated distribution. Draws
/// from `rng` only under the uniform rule.
inline bool PromoteToPool(const RankPromotionConfig& config,
                          bool zero_awareness, Rng& rng) {
  switch (config.rule) {
    case PromotionRule::kNone:
      return false;
    case PromotionRule::kUniform:
      return rng.NextBernoulli(config.r);
    case PromotionRule::kSelective:
      return zero_awareness;
  }
  return false;
}

/// One slot of the merge cascade (Section 4): whether the next result-list
/// position is filled from the shuffled pool (true) or the deterministic
/// list (false), given how many entries each side still has. The biased coin
/// is only tossed while both sides are non-empty. Third piece of the
/// single-source-of-truth set (with RankOrderBefore and PromoteToPool):
/// every materialization/lazy/serving merge must consult this helper.
inline bool NextSlotFromPool(double r, size_t det_remaining,
                             size_t pool_remaining, Rng& rng) {
  if (pool_remaining == 0) return false;
  if (det_remaining == 0) return true;
  return rng.NextBernoulli(r);
}

/// Appends the first min(m, det.size() + pool.size()) slots of a fresh
/// random realization of the merged list to `out` and returns how many were
/// appended. Identical in distribution to the prefix of MaterializeList, but
/// costs O(m + k) expected time instead of O(n): the deterministic list is
/// consumed in order and pool draws use a PoolPrefixSampler. This is the
/// serve-path primitive behind ShardedRankServer.
size_t MergePrefix(const RankPromotionConfig& config,
                   const std::vector<uint32_t>& det,
                   const std::vector<uint32_t>& pool, size_t m, Rng& rng,
                   std::vector<uint32_t>* out);

/// Cache-aware core of MergePrefix: splices the randomized tail onto an
/// *already merged* deterministic order (`det`, best first) using a
/// caller-owned sampler over the pool. The caller pays for the deterministic
/// merge once (e.g. per serving epoch, see serve/epoch_prefix_cache.h) and
/// every query is then the protected-prefix copy plus O(m) tail work.
///
/// `sampler` must be Reset() over the pool before each call; it is consumed
/// by the draws this call makes. While neither side can run dry within the
/// remaining slots the per-slot Bernoulli(r) coins are pre-drawn in chunks
/// (one tight loop over the generator), which vectorizes the common case of
/// a small m against a large corpus; the coin outcomes and pool draws stay
/// independent uniforms, so the realization distribution is exactly that of
/// the slot-by-slot cascade in MaterializeList.
size_t MergePrefixCached(const RankPromotionConfig& config, const uint32_t* det,
                         size_t det_size, PoolPrefixSampler& sampler, size_t m,
                         Rng& rng, std::vector<uint32_t>* out);

/// Resolves the page occupying `rank` (1-based) in an independent random
/// realization of (det, pool) merged under `config`, in O(rank) time.
/// Shared by Ranker::PageAtRank and the serving snapshots.
uint32_t ResolveRankLazy(const RankPromotionConfig& config,
                         const std::vector<uint32_t>& det,
                         const std::vector<uint32_t>& pool, size_t rank,
                         Rng& rng);

/// Executes the ranking pipeline for one time step under any
/// StochasticRankingPolicy (the paper's Section 4 pipeline is the promotion
/// family):
///
///  1. Split pages into the stochastic pool Pp (per the policy's
///     PoolMembership hook) and the rest, which forms the deterministic
///     list Ld sorted by descending popularity (ties broken by age, older
///     first, as in Appendix A). Scores are kept alongside for weighted
///     families.
///  2. Produce result lists: either a full materialized permutation, or a
///     prefix/per-rank realization through the policy's ServePrefix hook.
///
/// For the promotion family the lazy path exploits two facts: positions are
/// filled left-to-right by independent biased coins, and the s-th element of
/// a uniformly shuffled pool is marginally uniform over the pool.
/// Rank-biased visits concentrate on small j (E[j] ~ 0.77*sqrt(n)), so
/// resolving one visit is far cheaper than materializing all n slots.
/// Other families fall back to a length-j prefix realization per visit.
class Ranker {
 public:
  /// Promotion-family convenience: equivalent to constructing from
  /// MakePromotionPolicy(config), bit-for-bit including Rng consumption.
  explicit Ranker(RankPromotionConfig config);
  explicit Ranker(std::shared_ptr<const StochasticRankingPolicy> policy);

  /// Recomputes pool membership and the deterministic order from current
  /// page state. `popularity[p]` in [0,1]; `zero_awareness[p]` nonzero when
  /// no monitored user has visited p; `birth_step[p]` breaks popularity ties
  /// (smaller = older = ranked better). The uniform rule re-samples pool
  /// membership on every call. Also rebuilds the policy's per-epoch state
  /// (BuildEpochState over the fresh global view — e.g. Plackett-Luce's
  /// alias table), which TopM/PageAtRank then reuse on every realization.
  void Update(const std::vector<double>& popularity,
              const std::vector<uint8_t>& zero_awareness,
              const std::vector<int64_t>& birth_step, Rng& rng);

  /// One realization of the merged result list: a permutation of all pages,
  /// best rank first.
  std::vector<uint32_t> MaterializeList(Rng& rng) const;

  /// Like MaterializeList, but also reports where each deterministic-list
  /// index and each pool slot landed: `det_positions[j]` is the 0-based list
  /// position of deterministic_order()[j]; `pool_positions[s]` the position
  /// of the s-th slot of the shuffled pool. Used by the simulator to place
  /// probe ("ghost") pages into a realized list without rebuilding it.
  /// Promotion family only (the positions describe the two-list cascade).
  std::vector<uint32_t> MaterializeWithPositions(
      Rng& rng, std::vector<uint32_t>* det_positions,
      std::vector<uint32_t>* pool_positions) const;

  /// Resolves the page occupying `rank` (1-based) in an independent random
  /// realization of the merged list, without building the list. O(rank) for
  /// the promotion family; other families realize a length-`rank` prefix.
  uint32_t PageAtRank(size_t rank, Rng& rng) const;

  /// First min(m, n()) slots of an independent random realization, via the
  /// policy's ServePrefix. Marginals match MaterializeList; O(m) expected
  /// for every shipped family except in Plackett-Luce's degenerate regimes.
  std::vector<uint32_t> TopM(size_t m, Rng& rng) const;

  /// Deterministically ranked pages (Ld), best first.
  const std::vector<uint32_t>& deterministic_order() const { return det_; }
  /// Ranking scores of deterministic_order(), kept for weighted families.
  const std::vector<double>& deterministic_scores() const {
    return det_score_;
  }
  /// Stochastic pool Pp (unshuffled; empty for pool-less families).
  const std::vector<uint32_t>& pool() const { return pool_; }
  const StochasticRankingPolicy& policy() const { return *policy_; }
  /// Promotion-family configuration; must only be called when the policy is
  /// the promotion family (see StochasticRankingPolicy::AsPromotion).
  const RankPromotionConfig& config() const;
  size_t n() const { return det_.size() + pool_.size(); }

 private:
  /// The complete corpus as one pre-merged global view (borrowing this
  /// ranker's arrays; valid until the next Update).
  ShardView GlobalView() const;

  std::shared_ptr<const StochasticRankingPolicy> policy_;
  std::vector<uint32_t> det_;
  // Scores are kept so GlobalView() satisfies the full ShardView contract
  // (weighted families read them), so policies need no null-view cases.
  std::vector<double> det_score_;
  std::vector<uint32_t> pool_;
  // Policy-owned per-epoch state over GlobalView(), rebuilt by Update and
  // handed to every ServePrefix; null for stateless families.
  std::shared_ptr<const PolicyEpochState> epoch_state_;
};

}  // namespace randrank

#endif  // RANDRANK_CORE_RANK_MERGE_H_
