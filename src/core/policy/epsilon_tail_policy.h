#ifndef RANDRANK_CORE_POLICY_EPSILON_TAIL_POLICY_H_
#define RANDRANK_CORE_POLICY_EPSILON_TAIL_POLICY_H_

#include <memory>
#include <string>

#include "core/policy/stochastic_ranking_policy.h"

namespace randrank {

/// Epsilon-tail explorer: the top `protect` slots are always the
/// deterministically best pages; every later slot takes, with probability
/// epsilon, a uniformly random not-yet-served page (exploration) and
/// otherwise the best-ranked remaining page (exploitation). A classic
/// epsilon-greedy ranker — unlike the promotion family it needs no
/// zero-awareness signal and explores over the whole tail, not a curated
/// pool, so its stochastic state is empty: every page lives on the
/// deterministic list and the randomness is entirely in the realization.
///
/// Prefix realizations are O(m) expected (rejection sampling against the
/// already-served set; the fill fraction a prefix can reach is bounded, so
/// rejections stay O(1) amortized until m approaches n, where the expected
/// total degrades gracefully to O(n log n)). The family keeps no epoch
/// state: the protected head is a prefix of the merged order itself.
class EpsilonTailPolicy final : public StochasticRankingPolicy {
 public:
  EpsilonTailPolicy(double epsilon, size_t protect)
      : epsilon_(epsilon), protect_(protect) {}

  std::string Label() const override;
  bool Valid() const override {
    return epsilon_ >= 0.0 && epsilon_ <= 1.0;
  }

  /// Every page stays on the deterministic list; exploration happens at
  /// realization time over the whole tail.
  bool PoolMembership(bool zero_awareness, Rng& rng) const override {
    (void)zero_awareness;
    (void)rng;
    return false;
  }

  size_t ServePrefix(const ShardView* views, size_t num_views,
                     const PolicyEpochState* epoch_state,
                     PolicyScratch& scratch, size_t m, Rng& rng,
                     std::vector<uint32_t>* out) const override;

  std::vector<uint32_t> MaterializeReference(const ShardView& global,
                                             Rng& rng) const override;

  double epsilon() const { return epsilon_; }
  size_t protect() const { return protect_; }

 private:
  double epsilon_;
  size_t protect_;
};

std::shared_ptr<const StochasticRankingPolicy> MakeEpsilonTailPolicy(
    double epsilon, size_t protect);

}  // namespace randrank

#endif  // RANDRANK_CORE_POLICY_EPSILON_TAIL_POLICY_H_
