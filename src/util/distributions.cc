#include "util/distributions.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace randrank {

PowerLawQuantiles::PowerLawQuantiles(double exponent, double max_value)
    : exponent_(exponent), max_value_(max_value) {
  assert(exponent > 1.0);
  assert(max_value > 0.0);
}

double PowerLawQuantiles::Value(size_t i, size_t n) const {
  assert(i < n);
  (void)n;
  // Order statistics of a Pareto with pdf exponent a: the (i+1)-th largest of
  // n scales as ((i + 1))^(-1/(a-1)) relative to the largest. Using rank
  // directly (rather than rank/n) pins the top value at max_value_.
  const double tail_exponent = 1.0 / (exponent_ - 1.0);
  return max_value_ * std::pow(static_cast<double>(i + 1), -tail_exponent);
}

std::vector<double> PowerLawQuantiles::Values(size_t n) const {
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = Value(i, n);
  return out;
}

RankBiasSampler::RankBiasSampler(size_t n, double exponent)
    : exponent_(exponent) {
  assert(n > 0);
  cdf_.resize(n);
  double total = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    total += std::pow(static_cast<double>(i), -exponent_);
    cdf_[i - 1] = total;
  }
  theta_ = 1.0 / total;
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

size_t RankBiasSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<size_t>(it - cdf_.begin()) + 1;
}

double RankBiasSampler::Pmf(size_t i) const {
  assert(i >= 1 && i <= cdf_.size());
  const double below = (i == 1) ? 0.0 : cdf_[i - 2];
  return cdf_[i - 1] - below;
}

}  // namespace randrank
