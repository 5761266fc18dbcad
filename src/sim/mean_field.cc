#include "sim/mean_field.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace randrank {

MeanFieldModel::MeanFieldModel(const CommunityParams& params,
                               const RankPromotionConfig& config,
                               const MeanFieldOptions& options)
    : params_(params), config_(config), options_(options) {
  assert(params_.Valid());
  assert(config_.Valid());
}

std::vector<double> MeanFieldModel::IntegrateTrajectory(
    double q, const VisitRateCurve& F) const {
  const auto pop = static_cast<double>(params_.u);
  std::vector<double> a(state_.tau.size());
  double cur = 1.0 / pop;  // discovery = the first user is converted
  a[0] = cur;
  for (size_t j = 1; j < state_.tau.size(); ++j) {
    double t = state_.tau[j - 1];
    const double t_end = state_.tau[j];
    // Adaptive Euler: cap the awareness change per internal step at 0.05 so
    // a page sweeping past the rank knee cannot overshoot.
    while (t < t_end) {
      const double rate = F(q * cur) * (1.0 - cur) / pop;
      double dt = t_end - t;
      if (rate > 0.0) dt = std::min(dt, 0.05 / rate);
      cur = std::min(1.0, cur + rate * dt);
      t += dt;
    }
    a[j] = cur;
  }
  return a;
}

double MeanFieldModel::CrossingAge(size_t c, double x) const {
  const std::vector<double>& a = state_.awareness[c];
  const double q = state_.classes.value[c];
  if (q * a.back() <= x) return std::numeric_limits<double>::infinity();
  if (q * a.front() > x) return 0.0;
  // First grid index with q*a > x (a is nondecreasing).
  size_t lo = 0;
  size_t hi = a.size() - 1;
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    (q * a[mid] > x ? hi : lo) = mid;
  }
  const double x_lo = q * a[lo];
  const double x_hi = q * a[hi];
  const double frac = x_hi > x_lo ? (x - x_lo) / (x_hi - x_lo) : 1.0;
  return state_.tau[lo] + frac * (state_.tau[hi] - state_.tau[lo]);
}

double MeanFieldModel::RankOf(double x, double f0) const {
  const double lambda = params_.lambda();
  double rank = 1.0;
  for (size_t c = 0; c < state_.classes.size(); ++c) {
    const double tau_x = CrossingAge(c, x);
    if (std::isinf(tau_x)) continue;
    // Discovered cohort density: F(0)*Z_c*e^(-lambda*tau); mass older than
    // tau_x has popularity above x.
    rank += f0 * state_.zero_mass[c] * std::exp(-lambda * tau_x) / lambda;
  }
  return rank;
}

const MeanFieldState& MeanFieldModel::Solve() {
  if (solved_) return state_;

  state_.classes =
      QualityClasses::FromCommunity(params_, options_.max_classes);
  const size_t classes = state_.classes.size();
  const double lambda = params_.lambda();

  // Log-spaced discovery-age grid from a quarter day to the horizon.
  const double horizon = kHorizonLifetimes / lambda;
  state_.tau.resize(options_.trajectory_points);
  const double t_lo = 0.25;
  for (size_t j = 0; j < state_.tau.size(); ++j) {
    const double t =
        static_cast<double>(j) / static_cast<double>(state_.tau.size() - 1);
    state_.tau[j] = (j == 0) ? 0.0
                             : std::exp(std::log(t_lo) +
                                        t * (std::log(horizon) - std::log(t_lo)));
  }
  state_.awareness.assign(classes, {});
  state_.zero_mass.assign(classes, 0.0);

  // Undiscovered mass and discovered trajectories per class under F.
  double f0 = 0.0;
  const auto refresh = [&](const VisitRateCurve& F) {
    f0 = F.f0();
    double z = 0.0;
    for (size_t c = 0; c < classes; ++c) {
      state_.zero_mass[c] = lambda * state_.classes.count[c] / (lambda + f0);
      z += state_.zero_mass[c];
      state_.awareness[c] = IntegrateTrajectory(state_.classes.value[c], F);
    }
    return z;
  };
  static_cast<FixedPoint&>(state_) = SolveFixedPoint(
      params_, config_, state_.classes, options_.per_query_lists, refresh,
      [this, &f0](double x) { return RankOf(x, f0); });
  solved_ = true;
  return state_;
}

double MeanFieldModel::Qpc() {
  const MeanFieldState& s = Solve();
  const double lambda = params_.lambda();
  const double f0 = s.F.f0();
  double num = 0.0;
  double den = 0.0;
  for (size_t c = 0; c < s.classes.size(); ++c) {
    const double q = s.classes.value[c];
    // Undiscovered pages receive f0 visits each.
    double visits = s.zero_mass[c] * f0;
    num += visits * q;
    den += visits;
    // Discovered cohorts: integrate visit rate against the cohort density
    // F(0)*Z_c*e^(-lambda*tau) by trapezoid over the tau grid, plus the
    // (negligible but accounted) constant-awareness tail past the horizon.
    const double flux = f0 * s.zero_mass[c];
    double integral = 0.0;
    for (size_t j = 1; j < s.tau.size(); ++j) {
      const double fa = s.F(q * s.awareness[c][j - 1]) *
                        std::exp(-lambda * s.tau[j - 1]);
      const double fb =
          s.F(q * s.awareness[c][j]) * std::exp(-lambda * s.tau[j]);
      integral += 0.5 * (fa + fb) * (s.tau[j] - s.tau[j - 1]);
    }
    integral += s.F(q * s.awareness[c].back()) *
                std::exp(-lambda * s.tau.back()) / lambda;
    visits = flux * integral;
    num += visits * q;
    den += visits;
  }
  return den > 0.0 ? num / den : 0.0;
}

double MeanFieldModel::NormalizedQpc() { return Qpc() / IdealQpc(params_); }

double MeanFieldModel::Tbp(double quality, double threshold) {
  const MeanFieldState& s = Solve();
  // Expected discovery wait, then deterministic climb to the threshold.
  const double wait = 1.0 / s.F.f0();
  const size_t c = s.classes.NearestClass(quality);
  const std::vector<double>& a = s.awareness[c];
  if (a.back() < threshold) return std::numeric_limits<double>::infinity();
  size_t lo = 0;
  size_t hi = a.size() - 1;
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    (a[mid] >= threshold ? hi : lo) = mid;
  }
  const double frac =
      a[hi] > a[lo] ? (threshold - a[lo]) / (a[hi] - a[lo]) : 1.0;
  return wait + s.tau[lo] + frac * (s.tau[hi] - s.tau[lo]);
}

}  // namespace randrank
