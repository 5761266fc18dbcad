#ifndef RANDRANK_CORE_POLICY_THOMPSON_PROMOTION_POLICY_H_
#define RANDRANK_CORE_POLICY_THOMPSON_PROMOTION_POLICY_H_

#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/policy/stochastic_ranking_policy.h"

namespace randrank {

/// Thompson-sampling promotion: the pool/list partition of the paper's
/// selective rule (undiscovered pages form the stochastic pool) with the
/// fixed promotion coin replaced by a per-slot Bayesian duel. Each contested
/// slot compares
///
///   theta_pool ~ Beta(a, b)                         (the pool prior —
///     every pool page is zero-awareness, so they share one belief)
///   theta_det  ~ Beta(1 + c*s, 1 + c*(1 - s))       (the deterministic
///     head's posterior: its normalized rank score s in [0, 1] acts as c
///     pseudo-observations of quality)
///
/// and fills the slot from the pool iff theta_pool > theta_det. High-scoring
/// heads almost always beat the prior, so the top of the list stays
/// deterministic; deep in the tail the duel flips often and undiscovered
/// pages are promoted — the promotion *rate adapts to the strength of the
/// evidence at each rank* instead of being one global r. The top `protect`
/// slots never duel (the paper's protected prefix).
///
/// The duel's outcome is a Bernoulli(q(s)) coin with
/// q(s) = P(theta_pool > theta_det). At a = 1 (the shipped prior) q has a
/// closed form (PoolWinProbability), so ServePrefix tosses one uniform per
/// contested slot against q of the head's det position: read from the
/// epoch state's table for the first kCoinTablePositions positions, computed
/// per query past it. For a != 1 there is no closed form and ServePrefix
/// samples both Betas. MaterializeReference samples both Betas for every a,
/// so the equivalence tests compare the coin against an independent
/// realization of the duel.
///
/// Structurally different from the promotion family (rank-dependent rather
/// than constant promotion odds) and from epsilon-tail (explores a curated
/// zero-awareness pool, not the whole tail) — which is exactly what the
/// best-arm-identification example needs to discriminate.
class ThompsonPromotionPolicy final : public StochasticRankingPolicy {
 public:
  /// Det positions whose coin BuildEpochState tabulates. Each entry costs
  /// two lgamma_r calls at publish time.
  static constexpr size_t kCoinTablePositions = 1024;

  ThompsonPromotionPolicy(double a, double b, double evidence, size_t protect);

  std::string Label() const override;
  /// Finite a > 0, b > 0 and c >= 0: an infinite parameter makes the duel
  /// coin NaN, which never promotes.
  bool Valid() const override {
    return a_ > 0.0 && b_ > 0.0 && evidence_ >= 0.0 && std::isfinite(a_) &&
           std::isfinite(b_) && std::isfinite(evidence_);
  }

  /// Selective partition: zero-awareness pages form the pool.
  bool PoolMembership(bool zero_awareness, Rng& rng) const override {
    (void)rng;
    return zero_awareness;
  }

  /// At a = 1: q for the first min(det_size, kCoinTablePositions) det
  /// positions of `global`. Null for a != 1, which has no closed form.
  std::shared_ptr<const PolicyEpochState> BuildEpochState(
      const ShardView& global) const override;

  size_t ServePrefix(const ShardView* views, size_t num_views,
                     const PolicyEpochState* epoch_state,
                     PolicyScratch& scratch, size_t m, Rng& rng,
                     std::vector<uint32_t>* out) const override;

  std::vector<uint32_t> MaterializeReference(const ShardView& global,
                                             Rng& rng) const override;

  /// q(s) = P(Beta(1, b) > Beta(1 + c*s, 1 + c*(1 - s))) for a head of
  /// normalized score s, in closed form:
  ///   q(s) = Gamma(2 + c) Gamma(beta + b) / (Gamma(2 + c + b) Gamma(beta)),
  ///   beta = 1 + c*(1 - s).
  /// Requires a == 1. Uses the reentrant lgamma_r (std::lgamma writes the
  /// global signgam), so serving threads may call it concurrently.
  double PoolWinProbability(double s) const;

  double a() const { return a_; }
  double b() const { return b_; }
  double evidence() const { return evidence_; }
  size_t protect() const { return protect_; }

 private:
  /// Pool prior Beta(a, b).
  double a_;
  double b_;
  /// Pseudo-observation count c backing each deterministic head's score.
  double evidence_;
  /// Leading slots that never duel.
  size_t protect_;
  /// log(Gamma(2 + c) / Gamma(2 + c + b)), q's score-free factor.
  double log_coin_scale_;
};

std::shared_ptr<const StochasticRankingPolicy> MakeThompsonPromotionPolicy(
    double a, double b, double evidence, size_t protect);

}  // namespace randrank

#endif  // RANDRANK_CORE_POLICY_THOMPSON_PROMOTION_POLICY_H_
