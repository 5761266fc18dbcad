#ifndef RANDRANK_CORE_POLICY_PROMOTION_POLICY_H_
#define RANDRANK_CORE_POLICY_PROMOTION_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/policy/stochastic_ranking_policy.h"
#include "core/ranking_policy.h"

namespace randrank {

/// The paper's randomized rank-promotion family (Section 4): none / uniform
/// / selective / fixed-position, parameterized by `RankPromotionConfig`.
/// This class is the family's one home: the pool rule, the per-slot coin,
/// the O(m) serve splice, the reference cascade, and the two
/// promotion-only realizations the simulators need (positions of a full
/// list, and a lazy single-rank resolution) all live here. Layers whose
/// math is this family's (the agent simulator, the live study) hold this
/// type directly instead of a base pointer.
class PromotionPolicy final : public StochasticRankingPolicy {
 public:
  explicit PromotionPolicy(RankPromotionConfig config) : config_(config) {}

  std::string Label() const override { return config_.Label(); }
  bool Valid() const override { return config_.Valid(); }

  /// The pool rule: never (none), with probability r (uniform; the only
  /// rule that draws), or exactly the zero-awareness pages (selective).
  bool PoolMembership(bool zero_awareness, Rng& rng) const override;
  /// Leading slots always filled from the deterministic order (the paper's
  /// protected top k-1).
  size_t ProtectedPrefix() const { return config_.k - 1; }

  // BuildEpochState keeps the default null: the promotion family's
  // epoch-invariant state is exactly the pre-merged global view the serve
  // layer already owns (protected prefix + global pool).

  /// The protected-prefix copy plus an O(m) randomized splice: pool draws
  /// go through `scratch.pool_sampler`, and while neither side can run dry
  /// within the remaining slots the per-slot Bernoulli(r) coins are
  /// pre-drawn in chunks (one tight loop over the generator). The coins and
  /// pool draws stay independent uniforms, so the realization law is
  /// exactly that of the slot-by-slot cascade in MaterializeReference.
  size_t ServePrefix(const ShardView* views, size_t num_views,
                     const PolicyEpochState* epoch_state,
                     PolicyScratch& scratch, size_t m, Rng& rng,
                     std::vector<uint32_t>* out) const override;

  /// MaterializeWithPositions without the positions.
  std::vector<uint32_t> MaterializeReference(const ShardView& global,
                                             Rng& rng) const override;

  /// One realization of the full list (explicit Fisher-Yates shuffle of the
  /// pool, then the slot-by-slot cascade), also reporting where each entry
  /// landed: `det_positions[j]` is the 0-based list position of
  /// `view.det[j]`, `pool_positions[s]` that of the s-th slot of the
  /// shuffled pool. Either may be null. The simulator places probe
  /// ("ghost") pages into a realized list through these without rebuilding
  /// it.
  std::vector<uint32_t> MaterializeWithPositions(
      const ShardView& view, Rng& rng, std::vector<uint32_t>* det_positions,
      std::vector<uint32_t>* pool_positions) const;

  /// The page occupying `rank` (1-based) in an independent realization over
  /// `view`, in O(rank) time without building the list: positions fill
  /// left to right by independent coins, and the s-th element of a
  /// uniformly shuffled pool is marginally uniform over the pool.
  uint32_t PageAtRank(const ShardView& view, size_t rank, Rng& rng) const;

  const RankPromotionConfig& config() const { return config_; }

 private:
  /// The biased coin: Bernoulli(r) while both sides are non-empty,
  /// otherwise whichever side is left.
  bool NextSlot(size_t det_remaining, size_t pool_remaining, Rng& rng) const;

  RankPromotionConfig config_;
};

/// The promotion family as a policy: every `(rule, r, k)` triple maps to
/// one `PromotionPolicy`, including the paper's fixed-position live-study
/// variant (`RankPromotionConfig::FixedPosition`).
std::shared_ptr<const PromotionPolicy> MakePromotionPolicy(
    const RankPromotionConfig& config);

}  // namespace randrank

#endif  // RANDRANK_CORE_POLICY_PROMOTION_POLICY_H_
