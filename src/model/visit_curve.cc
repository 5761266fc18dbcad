#include "model/visit_curve.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace randrank {

VisitRateCurve::VisitRateCurve(std::vector<double> xs, std::vector<double> fs,
                               double f0)
    : xs_(std::move(xs)), fs_(std::move(fs)), f0_(f0) {
  assert(xs_.size() == fs_.size());
  assert(xs_.size() >= 2);
  assert(f0_ >= 0.0);
  log_xs_.resize(xs_.size());
  log_fs_.resize(fs_.size());
  for (size_t i = 0; i < xs_.size(); ++i) {
    assert(xs_[i] > 0.0);
    assert(fs_[i] > 0.0);
    assert(i == 0 || xs_[i] > xs_[i - 1]);
    log_xs_[i] = std::log(xs_[i]);
    log_fs_[i] = std::log(fs_[i]);
  }
}

double VisitRateCurve::operator()(double x) const {
  if (x <= 0.0) return f0_;
  assert(!xs_.empty());
  if (x <= xs_.front()) return fs_.front();
  if (x >= xs_.back()) return fs_.back();
  const double lx = std::log(x);
  const auto it = std::lower_bound(log_xs_.begin(), log_xs_.end(), lx);
  // log() can round x just above xs_.front() onto log_xs_[0] (hi == 0) or
  // x just below xs_.back() onto log_xs_.back(); clamp to a valid segment.
  const size_t hi = std::clamp<size_t>(
      static_cast<size_t>(it - log_xs_.begin()), 1, log_xs_.size() - 1);
  const size_t lo = hi - 1;
  const double t = (lx - log_xs_[lo]) / (log_xs_[hi] - log_xs_[lo]);
  return std::exp(log_fs_[lo] + t * (log_fs_[hi] - log_fs_[lo]));
}

VisitRateCurve VisitRateCurve::BlendWith(const VisitRateCurve& other,
                                         double w) const {
  assert(xs_.size() == other.xs_.size());
  std::vector<double> fs(fs_.size());
  for (size_t i = 0; i < fs_.size(); ++i) {
    fs[i] = std::exp((1.0 - w) * log_fs_[i] + w * other.log_fs_[i]);
  }
  const double f0 =
      std::exp((1.0 - w) * std::log(f0_) + w * std::log(other.f0_));
  return VisitRateCurve(xs_, std::move(fs), f0);
}

double VisitRateCurve::LogDistance(const VisitRateCurve& other,
                                   double f0_weight) const {
  assert(xs_.size() == other.xs_.size());
  double worst = f0_weight * std::fabs(std::log(f0_ / other.f0_));
  for (size_t i = 0; i < fs_.size(); ++i) {
    worst = std::max(worst, std::fabs(log_fs_[i] - other.log_fs_[i]));
  }
  return worst;
}

}  // namespace randrank
