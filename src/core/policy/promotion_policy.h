#ifndef RANDRANK_CORE_POLICY_PROMOTION_POLICY_H_
#define RANDRANK_CORE_POLICY_PROMOTION_POLICY_H_

#include <memory>
#include <string>

#include "core/policy/stochastic_ranking_policy.h"
#include "core/ranking_policy.h"

namespace randrank {

/// The paper's randomized rank-promotion family (Section 4) behind the
/// policy interface: none / uniform / selective / fixed-position, all
/// parameterized by `RankPromotionConfig` exactly as before. The hooks
/// delegate to the single-source-of-truth helpers (PromoteToPool,
/// NextSlotFromPool, MergePrefixCached), so a server or ranker constructed
/// from a config and one constructed from `MakePromotionPolicy(config)`
/// consume their Rng streams identically — existing seeds reproduce
/// bit-for-bit.
class PromotionPolicy final : public StochasticRankingPolicy {
 public:
  explicit PromotionPolicy(RankPromotionConfig config) : config_(config) {}

  std::string Label() const override { return config_.Label(); }
  PolicyCapabilities Capabilities() const override {
    return {.agent_sim = true, .mean_field = true};
  }
  bool Valid() const override { return config_.Valid(); }

  bool PoolMembership(bool zero_awareness, Rng& rng) const override;
  size_t ProtectedPrefix() const override { return config_.k - 1; }
  bool NextSlot(size_t det_remaining, size_t pool_remaining,
                Rng& rng) const override;

  // BuildEpochState keeps the default null: the promotion family's
  // epoch-invariant state is exactly the pre-merged global view the serve
  // layer already owns (protected prefix + global pool) — MergePrefixCached
  // needs nothing beyond it.

  size_t ServePrefix(const ShardView* views, size_t num_views,
                     const PolicyEpochState* epoch_state,
                     PolicyScratch& scratch, size_t m, Rng& rng,
                     std::vector<uint32_t>* out) const override;

  std::vector<uint32_t> MaterializeReference(const ShardView& global,
                                             Rng& rng) const override;

  const RankPromotionConfig* AsPromotion() const override { return &config_; }

 private:
  RankPromotionConfig config_;
};

/// The promotion family as a policy. `RankPromotionConfig` is now a thin
/// factory over this class: every `(rule, r, k)` triple maps to one
/// `PromotionPolicy`, including the paper's fixed-position live-study
/// variant (`RankPromotionConfig::FixedPosition`).
std::shared_ptr<const StochasticRankingPolicy> MakePromotionPolicy(
    const RankPromotionConfig& config);

}  // namespace randrank

#endif  // RANDRANK_CORE_POLICY_PROMOTION_POLICY_H_
