#include "model/analytic_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "model/awareness.h"
#include "model/rank_maps.h"

namespace randrank {

AnalyticModel::AnalyticModel(const CommunityParams& params,
                             const RankPromotionConfig& config,
                             size_t max_classes)
    : params_(params), config_(config), max_classes_(max_classes) {
  assert(params_.Valid());
  assert(config_.Valid());
}

const SteadyState& AnalyticModel::Solve() {
  if (solved_) return state_;

  state_.classes = QualityClasses::FromCommunity(params_, max_classes_);
  const size_t population = params_.u;
  const size_t levels = std::min(population, kAwarenessLevels);
  const double lambda = params_.lambda();
  state_.awareness.assign(state_.classes.size(), {});

  // Theorem 1 chains per class under F; F1 integrates them (Eq. 5).
  std::optional<RankMap> map;
  const auto refresh = [&](const VisitRateCurve& F) {
    const VisitRateFn fn = [&F](double x) { return F(x); };
    for (size_t c = 0; c < state_.classes.size(); ++c) {
      state_.awareness[c] = AwarenessDistribution(
          state_.classes.value[c], population, lambda, fn, levels);
    }
    map.emplace(state_.classes, state_.awareness);
    return map->zero_awareness_count();
  };
  // One ranked-list realization per day, as in the agent simulator.
  static_cast<FixedPoint&>(state_) = SolveFixedPoint(
      params_, config_, state_.classes, /*per_query_lists=*/false, refresh,
      [&map](double x) { return map->DeterministicRank(x); });
  solved_ = true;
  return state_;
}

double AnalyticModel::Qpc() {
  const SteadyState& s = Solve();
  double num = 0.0;
  double den = 0.0;
  for (size_t c = 0; c < s.classes.size(); ++c) {
    const double q = s.classes.value[c];
    const size_t levels = s.awareness[c].size() - 1;
    for (size_t i = 0; i <= levels; ++i) {
      const double ai =
          static_cast<double>(i) / static_cast<double>(levels);
      const double visits = s.F(ai * q);  // i = 0 hits the f0 special case
      const double mass = s.classes.count[c] * s.awareness[c][i] * visits;
      num += mass * q;
      den += mass;
    }
  }
  return den > 0.0 ? num / den : 0.0;
}

double AnalyticModel::NormalizedQpc() { return Qpc() / IdealQpc(params_); }

double AnalyticModel::Tbp(double quality, double threshold) {
  const SteadyState& s = Solve();
  return ExpectedTimeToAwareness(
      quality, params_.u, [&s](double x) { return s.F(x); }, threshold);
}

std::vector<double> AnalyticModel::AwarenessDistributionFor(double quality) {
  const SteadyState& s = Solve();
  return s.awareness[s.classes.NearestClass(quality)];
}

std::vector<double> AnalyticModel::PopularityTrajectory(double quality,
                                                        size_t days) {
  const SteadyState& s = Solve();
  // Master-equation transient, not the fluid ODE: the discovery wait in the
  // zero state dominates entrenched evolution (see AwarenessTransient).
  std::vector<double> a = AwarenessTransient(
      quality, params_.u, [&s](double x) { return s.F(x); }, days,
      std::min(params_.u, kAwarenessLevels));
  for (double& x : a) x *= quality;
  return a;
}

}  // namespace randrank
