#ifndef RANDRANK_MODEL_ANALYTIC_MODEL_H_
#define RANDRANK_MODEL_ANALYTIC_MODEL_H_

#include <cstddef>
#include <vector>

#include "core/community.h"
#include "core/ranking_policy.h"
#include "model/fixed_point.h"
#include "model/quality_classes.h"

namespace randrank {

/// Converged steady state: per-class awareness distributions coupled with
/// the self-consistent popularity->visit-rate curve F (FixedPoint).
struct SteadyState : FixedPoint {
  QualityClasses classes;
  /// awareness[c][i]: fraction of class-c pages at awareness i/m.
  std::vector<std::vector<double>> awareness;
};

/// Analytical model of Web-page popularity evolution under (randomized)
/// ranking (paper Section 5). Solves the circular dependence between the
/// awareness distribution (Theorem 1) and the popularity->visit-rate
/// function F = F2 o F1 by fixed-point iteration (SolveFixedPoint).
///
/// Population semantics: awareness dynamics run over the full user
/// population (u users, vu visits/day); the monitored sample is treated as a
/// representative estimator, per Section 3.1 and the Appendix A pool rule.
/// That keeps visits conserved: F2 hands out exactly the vu visits the
/// population makes per day, and a page leaves the zero-awareness pool at
/// its first visit by any user, not by a monitored one (Appendix A: "not
/// yet been viewed by any user"). Running the chain over the m monitored
/// users instead would stretch every discovery wait u/m-fold.
///
/// The paper's analysis targets small r ("only intended to be accurate for
/// small values of r"); the same caveat applies here. Use the simulators for
/// large r or k.
class AnalyticModel {
 public:
  /// Awareness-chain levels cap: the chain runs over the u-user
  /// population, and communities with u above this are coarsened (level 0
  /// kept exact).
  static constexpr size_t kAwarenessLevels = 512;

  /// `max_classes` caps the quality classes; n <= cap keeps one class per
  /// page.
  AnalyticModel(const CommunityParams& params,
                const RankPromotionConfig& config, size_t max_classes = 2048);

  /// Runs (or returns the cached) fixed point.
  const SteadyState& Solve();

  /// Absolute quality-per-click (Section 5.2 formula).
  double Qpc();

  /// QPC normalized by the ideal quality-ordered ranking (= 1.0 bound).
  double NormalizedQpc();

  /// Expected days for a quality-q page to exceed `threshold` awareness
  /// (TBP for threshold 0.99).
  double Tbp(double quality, double threshold = 0.99);

  /// Steady-state awareness distribution of pages with quality nearest q
  /// (Fig. 3 series). Size m+1.
  std::vector<double> AwarenessDistributionFor(double quality);

  /// Expected popularity trajectory P(t) = a(t)*q of a fresh page, per day
  /// (Fig. 2 / Fig. 4a series). Size days+1.
  std::vector<double> PopularityTrajectory(double quality, size_t days);

  const CommunityParams& params() const { return params_; }
  const RankPromotionConfig& config() const { return config_; }

 private:
  CommunityParams params_;
  RankPromotionConfig config_;
  size_t max_classes_;
  SteadyState state_;
  bool solved_ = false;
};

}  // namespace randrank

#endif  // RANDRANK_MODEL_ANALYTIC_MODEL_H_
