#ifndef RANDRANK_SIM_AGENT_SIM_H_
#define RANDRANK_SIM_AGENT_SIM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/age_policies.h"
#include "core/community.h"
#include "core/policy/promotion_policy.h"
#include "core/rank_merge.h"
#include "core/ranking_policy.h"
#include "sim/sim_result.h"
#include "util/distributions.h"
#include "util/rng.h"

namespace randrank {

/// Deterministic anti-entrenchment baselines from related work (Section 2);
/// alternatives to randomized promotion, ranked with no promotion pool.
enum class BaselineScoring {
  kNone,         ///< rank by popularity (plus any configured promotion)
  kAgeWeighted,  ///< popularity + decaying young-page subsidy [3, 22]
  kDerivative,   ///< popularity + credited growth rate [6]
};

/// Simulation knobs.
struct SimOptions {
  /// Days before measurement starts; 0 selects 2.5 expected lifetimes
  /// (enough for the page population to fully turn over into steady state).
  size_t warmup_days = 0;
  /// Measurement window; 0 selects 365 days.
  size_t measure_days = 0;
  uint64_t seed = 42;

  /// Number of TBP probe pages ("ghosts": virtual pages that receive visits
  /// per their would-be rank but do not perturb the community). 0 disables.
  size_t ghost_count = 64;
  /// Quality of the probe pages (paper uses 0.4 in Fig. 2/4).
  double ghost_quality = 0.4;
  /// Awareness fraction counting as "popular" (paper: 0.99).
  double tbp_threshold = 0.99;
  /// Probe age cap in days; probes older than this are censored and respawn.
  size_t ghost_max_age = 4000;

  /// Fidelity ablation: rank by the engine's measured (monitored-sample)
  /// awareness instead of the idealized true awareness, and gate the
  /// selective pool on zero *measured* awareness. The paper idealizes the
  /// monitored sample as representative (popularity == awareness * quality);
  /// this flag keeps the subsampled estimator instead.
  bool measured_ranking = false;

  /// Ablation: resolve each visit lazily via PromotionPolicy::PageAtRank
  /// instead of materializing one list per day (a fresh list realization
  /// per visit).
  bool per_visit_lists = false;

  /// Mixed surfing (Section 8): fraction x of visits made by random surfing
  /// rather than searching, and the teleportation probability c.
  double surf_fraction = 0.0;
  double teleport = 0.15;

  /// Related-work baseline: rank by a transformed score instead of raw
  /// popularity. Use with RankPromotionConfig::None() to compare the
  /// paper's randomized promotion against deterministic alternatives.
  BaselineScoring baseline = BaselineScoring::kNone;
  AgeWeightedScoring age_weighted;
  DerivativeScoring derivative;

  /// Per-visit sampling is exact but O(visits/day); above this many visits
  /// per day the simulator switches to per-rank Poisson batching (see
  /// agent_sim.cc). 0 forces batching, SIZE_MAX forbids it.
  size_t batch_visit_threshold = 20000;
};

/// Monte Carlo simulator of a Web community under (randomized) ranking,
/// following the paper's Section 6.2 simulator: it maintains an evolving
/// ranked list of pages, distributes user visits per Eq. 4, tracks awareness
/// and popularity of individual pages, and creates/retires pages per the
/// Poisson churn model.
///
/// Population model: visits are made by the full user population (vu per
/// day). Each visit's user is uniformly random, monitored with probability
/// m/u; awareness is tracked exactly for both subpopulations, so the
/// simulator supports both the paper's idealized ranking signal (true
/// awareness; the monitored sample is "representative", Section 3.1) and the
/// subsampled engine estimate (SimOptions::measured_ranking). Dynamics must
/// run on the full population: the paper's own TBP/QPC magnitudes and the
/// Appendix A pool rule ("not yet been viewed by any user") require it.
///
/// Exactness notes:
///  * Awareness is tracked as counts of aware users per page; each visit
///    converts a uniformly chosen user, i.e. succeeds with probability
///    (1 - awareness). This is the same Markov chain as per-user bitsets,
///    without the memory.
///  * QPC is accumulated as the exact per-day expectation over the realized
///    result list (sum of rank-probability * quality), which removes visit-
///    sampling noise from the metric while preserving list randomness.
class AgentSimulator {
 public:
  /// The simulator's ghost placement and per-visit resolution are the
  /// promotion family's math, so it takes that family's parameters: no
  /// other family can be passed in.
  AgentSimulator(const CommunityParams& params,
                 const RankPromotionConfig& config,
                 const SimOptions& options = {});

  /// Runs warmup + measurement and returns the aggregated result.
  SimResult Run();

  /// Advances one day (exposed for tests and custom experiments).
  void StepDay(bool measuring);

  /// Ranking-signal popularity of each page (true or measured, per options).
  const std::vector<double>& popularity() const { return popularity_; }
  /// Aware users per page (monitored + unmonitored).
  const std::vector<uint32_t>& awareness() const { return aware_total_; }
  const std::vector<double>& qualities() const { return quality_; }
  size_t day() const { return day_; }

 private:
  struct Ghost {
    uint32_t aware_monitored = 0;
    uint32_t aware_unmonitored = 0;
    size_t age = 0;
    /// Ring of recent ranking popularity (derivative baseline only).
    std::vector<double> history;
    size_t history_next = 0;
  };

  void ApplyChurn();
  void DistributeVisitsSampled(const std::vector<uint32_t>& list);
  void DistributeVisitsBatched(const std::vector<uint32_t>& list);
  void AccumulateQpc(const std::vector<uint32_t>& list);
  void UpdateGhosts(bool measuring);
  void VisitPage(uint32_t page);
  /// Applies `visits` simultaneous visits to one page (batched mode).
  void VisitPageBatch(uint32_t page, double visits);
  void RefreshPageSignal(uint32_t page);
  double TrueAwareness(const Ghost& ghost) const;
  double GhostRankingPopularity(const Ghost& ghost) const;
  /// Ranking keys for the day (baseline-transformed when configured).
  void ComputeScores();
  double GhostScore(const Ghost& ghost) const;
  double GhostExpectedVisits(const Ghost& ghost, Rng& rng) const;
  size_t GhostListPosition(const Ghost& ghost, Rng& rng) const;

  CommunityParams params_;
  std::shared_ptr<const PromotionPolicy> policy_;
  SimOptions opts_;
  Rng rng_;

  std::vector<double> quality_;            // per page, fixed across rebirth
  std::vector<uint32_t> aware_monitored_;  // aware monitored users (<= m)
  std::vector<uint32_t> aware_total_;      // all aware users (<= u)
  std::vector<double> popularity_;         // ranking signal
  std::vector<double> true_popularity_;    // quality * aware_total/u
  std::vector<uint8_t> zero_flag_;         // pool-rule zero-awareness flag
  std::vector<int64_t> birth_day_;
  std::vector<double> score_;              // ranking keys (baseline-adjusted)
  std::vector<std::vector<double>> pop_history_;  // derivative ring buffer
  size_t history_next_ = 0;

  Ranker ranker_;
  RankBiasSampler rank_sampler_;
  double visits_per_day_;  // total user visits vu
  double theta_;           // F2 scale: vu / sum i^-3/2
  double monitored_fraction_;
  size_t day_ = 0;
  bool batched_;

  // Per-day realization (valid after StepDay's ranking phase).
  std::vector<uint32_t> det_positions_;
  std::vector<uint32_t> pool_positions_;

  double popularity_sum_ = 0.0;  // of true_popularity_
  double mean_quality_ = 0.0;

  std::vector<Ghost> ghosts_;

  // Accumulators (measurement window only).
  double qpc_num_ = 0.0;
  double qpc_den_ = 0.0;
  double zero_pages_sum_ = 0.0;
  size_t measured_days_ = 0;
  double tbp_sum_ = 0.0;
  size_t tbp_count_ = 0;
  size_t tbp_censored_ = 0;
  std::vector<double> ghost_visit_sum_;
  std::vector<double> ghost_pop_sum_;
  std::vector<double> ghost_age_count_;
  std::vector<double> top_occupancy_;  // 101 awareness-fraction bins
};

}  // namespace randrank

#endif  // RANDRANK_SIM_AGENT_SIM_H_
