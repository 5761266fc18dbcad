#ifndef RANDRANK_MODEL_VISIT_CURVE_H_
#define RANDRANK_MODEL_VISIT_CURVE_H_

#include <vector>

namespace randrank {

/// The popularity -> visit-rate function F(x) used by the steady-state
/// models, with the x = 0 case (zero-awareness pages) carried as a separate
/// value f0, because the promotion rules treat zero-awareness pages
/// specially.
///
/// Representation: tabulated on a fixed log-spaced grid and interpolated
/// linearly in log-log space (flat extension outside the grid). The paper
/// fits a global quadratic in log-log space instead (Section 5.3); that fit
/// is not used -- under heavy entrenchment F develops a sharp knee that a
/// global quadratic smooths away, which inflates mid-popularity visit rates
/// by orders of magnitude and destabilizes the fixed point.
class VisitRateCurve {
 public:
  VisitRateCurve() = default;

  /// Tabulated curve. `xs` must be positive and strictly increasing;
  /// `fs` positive, same length (>= 2).
  VisitRateCurve(std::vector<double> xs, std::vector<double> fs, double f0);

  /// F(x); x <= 0 returns f0.
  double operator()(double x) const;

  double f0() const { return f0_; }
  double x_lo() const { return xs_.empty() ? 0.0 : xs_.front(); }
  double x_hi() const { return xs_.empty() ? 0.0 : xs_.back(); }
  const std::vector<double>& grid() const { return xs_; }
  const std::vector<double>& values() const { return fs_; }

  /// Geometric blend: result(x) = this(x)^(1-w) * other(x)^w, pointwise on
  /// this curve's grid (grids must match; used for fixed-point damping).
  VisitRateCurve BlendWith(const VisitRateCurve& other, double w) const;

  /// sup |log(this(x)) - log(other(x))| over the grid plus the f0 pair,
  /// the latter scaled by `f0_weight`. Solvers shrink the f0 weight when the
  /// promotion pool is nearly empty: the per-page discovery rate is then a
  /// steep function of a couple of pages and its jitter is immaterial.
  double LogDistance(const VisitRateCurve& other, double f0_weight = 1.0) const;

 private:
  std::vector<double> xs_;
  std::vector<double> log_xs_;
  std::vector<double> log_fs_;
  std::vector<double> fs_;
  double f0_ = 0.0;
};

}  // namespace randrank

#endif  // RANDRANK_MODEL_VISIT_CURVE_H_
