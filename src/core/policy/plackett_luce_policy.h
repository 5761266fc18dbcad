#ifndef RANDRANK_CORE_POLICY_PLACKETT_LUCE_POLICY_H_
#define RANDRANK_CORE_POLICY_PLACKETT_LUCE_POLICY_H_

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/policy/stochastic_ranking_policy.h"

namespace randrank {

/// Plackett-Luce / softmax sampler over the popularity score: result lists
/// are sampled without replacement with per-slot probabilities proportional
/// to exp(score / T). Temperature T interpolates between near-deterministic
/// popularity ranking (T -> 0) and a uniform shuffle (T -> inf) — the
/// smooth counterpart of the paper's coin-flip merge, after the stochastic
/// rankers of Ganguly's risk-analysis framework.
///
/// Serving: BuildEpochState precomputes a Walker/Vose alias table over
/// exp(score/T) once per epoch; each slot draws from the unconditional
/// softmax in O(1) and rejects pages already served — which is exactly
/// sequential softmax sampling without replacement, so top-m draws cost O(m)
/// expected for m << n. A per-slot re-draw bound (O(log n) attempts) catches
/// the degenerate regimes (tiny T, m -> n) where the served mass dominates;
/// past it the query falls back to Gumbel-max over the not-yet-served pages
/// (one perturbed key per page, top keys descending), keeping the worst case
/// at O(n log n) instead of an unbounded rejection loop. A null epoch state
/// (an empty view, or a caller that skipped BuildEpochState) sends the whole
/// query through that exact Gumbel-max fallback from slot 0.
class PlackettLucePolicy final : public StochasticRankingPolicy {
 public:
  explicit PlackettLucePolicy(double temperature)
      : temperature_(temperature) {}

  std::string Label() const override;
  bool Valid() const override {
    return temperature_ > 0.0 && std::isfinite(temperature_);
  }

  /// Weighted sampling needs every page's score on the deterministic list;
  /// the stochastic pool stays empty.
  bool PoolMembership(bool zero_awareness, Rng& rng) const override {
    (void)zero_awareness;
    (void)rng;
    return false;
  }

  /// Per-epoch alias table over exp(score/T) across the global view.
  std::shared_ptr<const PolicyEpochState> BuildEpochState(
      const ShardView& global) const override;

  size_t ServePrefix(const ShardView* views, size_t num_views,
                     const PolicyEpochState* epoch_state,
                     PolicyScratch& scratch, size_t m, Rng& rng,
                     std::vector<uint32_t>* out) const override;

  std::vector<uint32_t> MaterializeReference(const ShardView& global,
                                             Rng& rng) const override;

  double temperature() const { return temperature_; }

 private:
  double temperature_;
};

std::shared_ptr<const StochasticRankingPolicy> MakePlackettLucePolicy(
    double temperature);

}  // namespace randrank

#endif  // RANDRANK_CORE_POLICY_PLACKETT_LUCE_POLICY_H_
