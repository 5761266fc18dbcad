#ifndef RANDRANK_UTIL_DISTRIBUTIONS_H_
#define RANDRANK_UTIL_DISTRIBUTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace randrank {

/// Deterministic power-law quantile assignment.
///
/// The paper draws page quality from "the power-law distribution reported for
/// PageRank in [Cho & Roy 2004]" (pdf exponent ~2.1) scaled so the highest
/// quality equals `max_value`. Sampling would inject noise into sweeps, so we
/// instead assign the i-th largest of n values its expected order statistic:
///   value(i) = max_value * ((i + 0.5) / (0.5))^(-1/(exponent-1))  -- i from 0.
/// This keeps the quality distribution stationary across page churn exactly as
/// the model requires (a retired page is replaced by one of equal quality).
class PowerLawQuantiles {
 public:
  /// `exponent` is the pdf exponent (> 1); `max_value` the largest value.
  PowerLawQuantiles(double exponent, double max_value);

  /// Value of the i-th largest out of n (i in [0, n)).
  double Value(size_t i, size_t n) const;

  /// All n values, descending.
  std::vector<double> Values(size_t n) const;

  double exponent() const { return exponent_; }
  double max_value() const { return max_value_; }

 private:
  double exponent_;
  double max_value_;
};

/// Samples a rank position from the paper's rank->visit law
/// F2(i) = theta * i^(-3/2) truncated to ranks 1..n (Eq. 4). Visits to a
/// result list are rank-biased; this is the distribution of the rank position
/// of a single visit. Inverse-CDF lookup via binary search on a precomputed
/// prefix table (exact, not approximate).
class RankBiasSampler {
 public:
  /// `exponent` defaults to the AltaVista-measured 3/2.
  explicit RankBiasSampler(size_t n, double exponent = 1.5);

  /// Draws a rank in [1, n].
  size_t Sample(Rng& rng) const;

  /// P(rank = i), i in [1, n].
  double Pmf(size_t i) const;

  /// Normalization constant theta = 1 / sum_i i^(-exponent) (for unit total).
  double theta() const { return theta_; }

  size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  double theta_;
  double exponent_;
};

}  // namespace randrank

#endif  // RANDRANK_UTIL_DISTRIBUTIONS_H_
