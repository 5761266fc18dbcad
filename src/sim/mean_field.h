#ifndef RANDRANK_SIM_MEAN_FIELD_H_
#define RANDRANK_SIM_MEAN_FIELD_H_

#include <cstddef>
#include <vector>

#include "core/community.h"
#include "core/ranking_policy.h"
#include "model/fixed_point.h"
#include "model/quality_classes.h"

namespace randrank {

/// Knobs for the mean-field steady-state model.
struct MeanFieldOptions {
  size_t max_classes = 1024;
  /// Log-spaced cohort-age grid size for the awareness trajectories.
  size_t trajectory_points = 320;
  /// Pool discovery regime: false models one ranked-list realization per
  /// day (the agent simulator's default; discoveries saturate at one per
  /// slot per day); true models a fresh merge per query (the paper's
  /// Section 4 wording; no saturation).
  bool per_query_lists = false;
};

/// Converged mean-field steady state; F and z come from FixedPoint (z is
/// the total undiscovered page mass).
struct MeanFieldState : FixedPoint {
  QualityClasses classes;
  /// Cohort-age grid tau[j] (days since discovery) shared by all classes.
  std::vector<double> tau;
  /// awareness[c][j]: deterministic awareness of a class-c page at
  /// discovery-age tau[j].
  std::vector<std::vector<double>> awareness;
  /// Zero-awareness (undiscovered) page mass per class.
  std::vector<double> zero_mass;
};

/// Cohort mean-field model of popularity evolution: the expected-value twin
/// of the agent simulator, scalable to communities of millions of pages
/// (used for the largest points of Fig. 7).
///
/// Decomposition: the only stochasticity that matters at steady state is the
/// exponential wait in the zero-awareness ("undiscovered") state -- after the
/// first visit a page's awareness grows near-deterministically because it
/// aggregates many independent visit events. Hence the state is:
///
///  * per class, the undiscovered mass  Z_c = lambda*n_c / (lambda + F(0))
///    (births at zero, deaths, discovery at rate F(0)); and
///  * a deterministic discovered trajectory a_c(tau) with a_c(0) = 1/u and
///    da/dtau = F(q_c a)(1 - a)/u, with cohort density F(0)*Z_c*e^(-lambda
///    tau) by Poisson churn. (Dynamics run over the full u-user population,
///    as in AnalyticModel.)
///
/// The fixed point couples trajectories to ranks exactly as the analytic
/// model couples Theorem 1 to Eq. 5 (the rank of popularity x integrates the
/// surviving cohort mass above x). Z_c reproduces Theorem 1's f(a_0)
/// exactly, and Z_c plus the discovered mass telescopes to n_c.
class MeanFieldModel {
 public:
  /// The fixed point couples trajectories to ranks through the promotion
  /// family's closed-form visit map in (rule, r, k) (PromotionVisitMap), so
  /// the model takes that family's parameters.
  MeanFieldModel(const CommunityParams& params,
                 const RankPromotionConfig& config,
                 const MeanFieldOptions& options = {});

  /// Trajectories integrate to this many expected lifetimes.
  static constexpr double kHorizonLifetimes = 8.0;

  const MeanFieldState& Solve();

  /// Absolute quality-per-click at steady state.
  double Qpc();
  /// QPC normalized by the ideal quality-ordered ranking.
  double NormalizedQpc();
  /// Expected days for a fresh quality-q page to reach `threshold` awareness
  /// (expected discovery wait + deterministic climb).
  double Tbp(double quality, double threshold = 0.99);

  const CommunityParams& params() const { return params_; }

 private:
  /// Integrates a discovered-awareness trajectory under visit-rate curve F.
  std::vector<double> IntegrateTrajectory(double q,
                                          const VisitRateCurve& F) const;
  /// Expected rank of popularity x > 0 given current trajectories and the
  /// zero-state exit rate f0 = F(0) they were integrated under.
  double RankOf(double x, double f0) const;
  /// First discovery-age at which class c exceeds popularity x; infinity if
  /// never. Linear interpolation on the tau grid.
  double CrossingAge(size_t c, double x) const;

  CommunityParams params_;
  RankPromotionConfig config_;
  MeanFieldOptions options_;
  MeanFieldState state_;
  bool solved_ = false;
};

}  // namespace randrank

#endif  // RANDRANK_SIM_MEAN_FIELD_H_
